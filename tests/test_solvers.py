import json
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from netenergy import (
    BinaryTreeGen,
    ConvergenceReport,
    GeometricLineGen,
    IntegerLatticeGen,
    IntegerLineGen,
    Network,
    NetworkError,
    SolverError,
    cycle,
    effective_resistance,
    energy_form,
    geometric_line,
    harmonic_space,
    is_harmonic,
    network_from_json,
    network_to_json,
    path,
    random_network,
    royden_project,
    solve_dipole,
    solve_dipoles,
    solve_grounded,
    solve_monopole,
    to_energy_vector,
    transience_probe,
    truncate,
)
from netenergy import solvers
from netenergy.solvers import _aitken


def _foster_networks():
    gens = [BinaryTreeGen(), IntegerLineGen(conductance=0.5), GeometricLineGen(ratio=3.0),
            IntegerLatticeGen(d=3)]
    for gen in gens:
        for k in range(1, 5):
            net = truncate(gen, k)
            yield pytest.param(net, id=f"{type(gen).__name__}-{k}")
            yield pytest.param(network_from_json(network_to_json(net)), id=f"{type(gen).__name__}-{k}-json")
    yield pytest.param(random_network(40, seed=5), id="random")
    yield pytest.param(cycle(7, conductance=2.5), id="cycle")


@pytest.mark.parametrize("net", _foster_networks())
def test_foster_theorem(net):
    """Foster: sum over edges of c_xy R(x, y) = n - 1 (the ground counted in n)."""
    heads, tails, conds = net.edge_arrays
    cols = np.arange(conds.size)
    dipoles = np.zeros((net.n, conds.size))
    dipoles[heads, cols] = 1.0
    dipoles[tails, cols] = -1.0
    w = solve_grounded(net, dipoles)
    r = w[heads, cols] - w[tails, cols]  # R(x, y) across every edge
    assert float(conds @ r) == pytest.approx(net.n - 1, rel=1e-10)


def test_dipole_hand_values(p3):
    v_a = solve_dipole(p3, "a")
    np.testing.assert_allclose(v_a.values, [0.0, 1.0, 1.0], atol=1e-12)
    assert v_a.energy == pytest.approx(1.0)
    v_b = solve_dipole(p3, "b")
    np.testing.assert_allclose(v_b.values, [0.0, 1.0, 1.5], atol=1e-12)
    assert v_b.energy == pytest.approx(1.5)
    # the origin maps to the zero class
    assert solve_dipole(p3, "o").energy == 0.0


def test_dipole_reproduces_point_evaluations(rng):
    net = random_network(24, seed=rng)
    kernels = solve_dipoles(net, net.labels)
    for _ in range(5):
        u = rng.standard_normal(net.n)
        for x, v in zip(net.labels, kernels):
            lhs = energy_form(net, v.values, u)
            rhs = u[net.index(x)] - u[net.origin_index]
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_batched_dipoles_put_each_source_in_its_own_column():
    net = random_network(20, seed=2)
    o = net.origin
    xs = [net.labels[3], o, net.labels[7], net.labels[3]]
    batch = solve_dipoles(net, xs)
    assert batch[1].energy == 0.0 and not batch[1].values.any()
    for x, v in zip(xs, batch):
        np.testing.assert_allclose(net.laplacian(v.values), net.delta(x) - net.delta(o),
                                   rtol=0, atol=1e-12)
    np.testing.assert_array_equal(batch[0].values, batch[3].values)


def test_effective_resistance_series_parallel(p3):
    assert effective_resistance(p3, "o", "b") == pytest.approx(1.5)
    assert effective_resistance(p3, "o", "a") == pytest.approx(1.0)
    assert effective_resistance(p3, "a", "b") == pytest.approx(0.5)
    assert effective_resistance(path(4), 0, 3) == pytest.approx(3.0)
    # two arms of resistance 2 in parallel
    assert effective_resistance(cycle(4), 0, 2) == pytest.approx(1.0)
    assert effective_resistance(p3, "a", "a") == 0.0


def test_solve_grounded_shapes(p3):
    rhs = np.array([1.0, -1.0, 0.0])
    u = solve_grounded(p3, rhs)
    np.testing.assert_allclose(p3.laplacian(u), rhs, atol=1e-12)
    cols = solve_grounded(p3, np.column_stack([rhs, -rhs]))
    assert cols.shape == (3, 2)
    np.testing.assert_allclose(cols[:, 0], u)


def test_solve_grounded_needs_compatible_rhs(p3):
    with pytest.raises(SolverError, match="sum to zero"):
        solve_grounded(p3, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(NetworkError, match="shape"):
        solve_grounded(p3, np.zeros((5, 2)))


def test_solve_grounded_pins_ground():
    net = truncate(BinaryTreeGen(), 2)
    u = solve_grounded(net, net.delta("r"))  # rhs need not balance: ground absorbs it
    assert u[net.ground_index] == 0.0
    np.testing.assert_allclose(net.laplacian(u)[net.interior_indices()],
                               net.delta("r")[net.interior_indices()], atol=1e-12)


def test_wired_tree_resistance_oracle():
    # series/parallel reduction from the deepest level upward
    def oracle(k):
        r = 0.5
        for _ in range(k - 1):
            r = (1.0 + r) / 2.0
        return (1.0 + r) / 2.0

    for k in (1, 2, 3, 6):
        net = truncate(BinaryTreeGen(), k)
        assert effective_resistance(net, "r", "ground") == pytest.approx(
            oracle(k), abs=1e-12
        )


def test_monopole_on_summable_line():
    w, report = solve_monopole(GeometricLineGen(ratio=2.0), 0, tol=1e-9, k_max=40)
    assert report.converged
    # total resistance to infinity is the geometric series sum 2
    assert report.extrapolated_limit == pytest.approx(2.0, abs=1e-6)
    assert w.energy == pytest.approx(2.0, abs=1e-6)
    ks = report.ks
    assert (np.diff(ks) > 0).all()
    # in the grounded gauge the potential at the source is the energy
    for _, value, energy in report.levels:
        assert value == pytest.approx(energy, rel=1e-12)


def test_monopole_vertex_must_be_inside():
    with pytest.raises(NetworkError, match="first level"):
        solve_monopole(GeometricLineGen(ratio=2.0), 99, tol=1e-6, k_max=5)


@pytest.mark.parametrize(
    "run",
    [
        lambda src, k, **kw: solve_monopole(src, 0, k_max=k, **kw),
        lambda src, k, **kw: transience_probe(src, k_max=k, **kw),
    ],
    ids=["monopole", "probe"],
)
def test_exhaustion_rejects_bad_input(run):
    with pytest.raises(NetworkError, match="k_max must be an integer >= 1"):
        run(GeometricLineGen(ratio=2.0), 0)
    with pytest.raises(NetworkError, match="expected a generator"):
        run(path(3), 5)
    # an infinite tol would call any run converged, a NaN one never stops it
    for tol in (math.inf, -math.inf, math.nan, -1e-9):
        with pytest.raises(NetworkError, match="tol must be a finite number >= 0"):
            run(IntegerLineGen(), 50, tol=tol)
    run(GeometricLineGen(ratio=2.0), 3, tol=0.0)


def test_monopole_at_origin_matches_probe():
    _, mono = solve_monopole(BinaryTreeGen(), "r", tol=1e-3, k_max=8)
    _, probe = transience_probe(BinaryTreeGen(), tol=1e-3, k_max=8)
    assert mono.summary() == probe.summary()


def test_extrapolation_needs_shrinking_increments():
    assert _aitken([1.0, 1.5, 1.75]) == pytest.approx(2.0)
    assert _aitken([1.0, 2.0, 2.0]) == 2.0  # stopped moving
    for seq in ([1.0, 2.0], [1.0, 2.0, 3.0], [1.0, 3.0, 7.0], [2.0, 2.0, 3.0]):
        assert math.isnan(_aitken(seq))


def test_diverging_energies_have_no_limit():
    # energies 1, 3, 7, ... grow geometrically: Aitken would report -1
    _, report = solve_monopole(GeometricLineGen(ratio=0.5), 0, k_max=6)
    assert not report.converged
    assert math.isnan(report.extrapolated_limit)
    assert "null" in json.dumps(report.summary())
    verdict, report = transience_probe(GeometricLineGen(ratio=0.5), k_max=6)
    assert verdict == "inconclusive"
    assert math.isnan(report.extrapolated_limit)


def test_transience_verdicts():
    verdict, report = transience_probe(BinaryTreeGen(), tol=1e-4, k_max=20)
    assert verdict == "transient"
    assert report.extrapolated_limit == pytest.approx(1.0, abs=1e-3)
    # the unit half line: R_k = k, past 1000 R_1 at k = 1001
    verdict, _ = transience_probe(GeometricLineGen(ratio=1.0), tol=1e-9, k_max=1101, stride=100)
    assert verdict == "recurrent"
    verdict, _ = transience_probe(BinaryTreeGen(), tol=1e-9, k_max=3)
    assert verdict == "inconclusive"


def test_convergence_report_contract():
    report = ConvergenceReport(
        levels=((1, 0.5, 0.5), (2, 0.75, 0.75)),
        extrapolated_limit=1.0,
        converged=False,
        tol=1e-6,
    )
    assert report.summary()["extrapolated_limit"] == 1.0
    with pytest.raises(ValueError, match="increasing"):
        ConvergenceReport(
            levels=((2, 0.5, 0.5), (1, 0.7, 0.7)),
            extrapolated_limit=1.0,
            converged=True,
            tol=1e-6,
        )


def test_harmonic_space_dimension(p3):
    basis = harmonic_space(p3, ["o", "b"])
    assert len(basis) == 1
    # voltage divider: two thirds of the drop happens over the weaker edge
    np.testing.assert_allclose(basis[0], [0.0, 2.0 / 3.0, 1.0], atol=1e-12)
    assert is_harmonic(p3, basis[0], boundary=["o", "b"])
    assert harmonic_space(p3, ["o"]) == []


def test_royden_split_on_truncation(rng):
    net = truncate(BinaryTreeGen(), 3)
    boundary = [lbl for lbl in net.labels if lbl != net.ground and len(lbl) == 4]
    boundary.append(net.ground)
    u = to_energy_vector(net, rng.standard_normal(net.n))
    fin, harm = royden_project(net, u, boundary=boundary)
    np.testing.assert_allclose(fin.values + harm.values, u.values, atol=1e-11)
    assert abs(fin.inner(harm)) <= 1e-10 * u.energy
    assert is_harmonic(net, harm.values, boundary=boundary)
    # energies add along an orthogonal split
    assert fin.energy + harm.energy == pytest.approx(u.energy, rel=1e-10)


@pytest.mark.parametrize(
    "boundary", [[0, 13], list(range(14))], ids=["ends", "every-vertex"]
)
def test_royden_split_on_stiff_line(boundary, rng):
    # conductances 10^k over thirteen decades; a line is a series circuit,
    # so the harmonic part is linear in the resistance coordinate between
    # boundary vertices and its energy is sum (jump of u)^2 / (resistance)
    net = geometric_line(10.0, 14)
    resistances = 10.0 ** -np.arange(13)
    r = np.concatenate([[0.0], np.cumsum(resistances)])
    u = to_energy_vector(net, rng.standard_normal(net.n))
    fin, harm = royden_project(net, u, boundary=boundary)
    ub = u.values[boundary]
    np.testing.assert_allclose(harm.values, np.interp(r, r[boundary], ub), rtol=0, atol=1e-12)
    between = np.add.reduceat(resistances, boundary[:-1])
    assert harm.energy == pytest.approx(np.sum(np.diff(ub) ** 2 / between), rel=1e-12)
    np.testing.assert_array_equal(harm.values[boundary], ub)
    assert not fin.values[boundary].any()
    np.testing.assert_allclose(fin.values + harm.values, u.values, rtol=0, atol=1e-12)


def test_royden_split_finite_network_is_all_finite(rng):
    net = cycle(7)
    u = to_energy_vector(net, rng.standard_normal(7))
    fin, harm = royden_project(net, u)
    assert harm.energy == 0.0
    np.testing.assert_allclose(fin.values, u.values)


# -- the conjugate-gradient path above DIRECT_LIMIT ------------------------


def _deepest_and_ground(trunc):
    """The deepest tree vertices of a wired tree truncation, and its ground."""
    tree = [lbl for lbl in trunc.labels if lbl != trunc.ground]
    depth = max(map(len, tree))
    return [lbl for lbl in tree if len(lbl) == depth] + [trunc.ground]


def test_cg_path_matches_direct(monkeypatch, rng):
    def results():
        # fresh networks: factorizations are cached per network
        net, trunc = random_network(30, seed=5), truncate(BinaryTreeGen(), 3)
        rhs = rng.standard_normal((net.n, 3))
        rhs -= rhs.mean(axis=0)
        u = rng.standard_normal(trunc.n)
        return [
            solve_grounded(net, rhs[:, 0]),
            solve_grounded(net, rhs),
            solve_grounded(trunc, u),
            np.array(harmonic_space(trunc, _deepest_and_ground(trunc))),
            *(v.values for v in royden_project(trunc, u, boundary=_deepest_and_ground(trunc))),
            *(v.values for v in royden_project(net, rhs[:, 1], boundary=net.labels[::3])),
        ]

    state = rng.bit_generator.state
    direct = results()
    rng.bit_generator.state = state
    monkeypatch.setattr(solvers, "DIRECT_LIMIT", 3)

    def no_splu(*args, **kwargs):
        pytest.fail("a sparse LU ran above DIRECT_LIMIT")

    monkeypatch.setattr(spla, "splu", no_splu)
    for a, b in zip(direct, results()):
        np.testing.assert_allclose(b, a, rtol=0, atol=1e-9)


def test_cg_failure_is_solver_error(monkeypatch):
    monkeypatch.setattr(solvers, "DIRECT_LIMIT", 3)
    monkeypatch.setattr(spla, "cg", lambda a, b, **kw: (np.zeros_like(b), 1))
    net = truncate(BinaryTreeGen(), 3)
    with pytest.raises(SolverError, match="did not converge"):
        solve_grounded(net, net.delta("r"))
    with pytest.raises(SolverError, match="did not converge"):
        royden_project(net, np.arange(net.n, dtype=float), boundary=_deepest_and_ground(net))


@pytest.fixture
def factors(monkeypatch):
    """Every (matrix, factor) pair a sparse LU returns during the test."""
    out = []
    splu = spla.splu

    def capturing_splu(a, *args, **kwargs):
        lu = splu(a, *args, **kwargs)
        out.append((a, lu))
        return lu

    monkeypatch.setattr(spla, "splu", capturing_splu)
    return out


@pytest.fixture
def cg_calls(monkeypatch):
    """The maxiter of every conjugate-gradient run during the test."""
    out = []
    cg = spla.cg

    def counting_cg(*args, **kwargs):
        out.append(kwargs.get("maxiter"))
        return cg(*args, **kwargs)

    monkeypatch.setattr(spla, "cg", counting_cg)
    return out


def test_royden_factors_once_per_boundary(factors, cg_calls, rng):
    net = truncate(BinaryTreeGen(), 4)
    boundary = [lbl for lbl in net.labels if lbl != net.ground and len(lbl) == 5]
    harmonic_space(net, boundary)  # several columns: the factor is built
    # one column on a factored system: no CG, whatever the boundary order
    for order in (boundary, boundary[::-1], boundary):
        royden_project(net, rng.standard_normal(net.n), boundary=order)
    harmonic_space(net, boundary)
    assert len(factors) == 1 and cg_calls == []
    # the ground is a different pinned set
    solve_grounded(net, rng.standard_normal((net.n, 2)))
    assert len(factors) == 2
    solve_grounded(net, net.delta("r"))
    assert len(factors) == 2 and cg_calls == []


# -- the direct path: symmetric ordering, diagonal pivots -------------------


def test_direct_path_fill_and_accuracy(factors, rng):
    # two right-hand sides per system: a one-column solve may end in CG
    z3 = truncate(IntegerLatticeGen(d=3), 11)
    solve_grounded(z3, rng.standard_normal((z3.n, 2)))
    tree = truncate(BinaryTreeGen(), 8)
    solve_grounded(tree, rng.standard_normal((tree.n, 2)))
    net = random_network(300, seed=7)
    rhs = rng.standard_normal((net.n, 2))
    solve_grounded(net, rhs - rhs.mean(axis=0))
    harmonic_space(tree, _deepest_and_ground(tree))
    assert len(factors) == 4

    a, lu = factors[0]
    # a minimum-degree ordering of A + A^T: COLAMD with pivoting gives 28
    assert (lu.L.nnz + lu.U.nnz) / a.nnz <= 15.0
    for a, lu in factors:
        b = rng.standard_normal(a.shape[0])
        x = lu.solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-13


def test_failed_factorization_is_solver_error(monkeypatch):
    def singular(*args, **kwargs):
        # what SuperLU raises on a zero diagonal pivot
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    net = truncate(BinaryTreeGen(), 2)
    with pytest.raises(SolverError, match="singular"):
        solve_grounded(net, net.delta("r"))


# -- one column below DIRECT_LIMIT: CG within ceil(sqrt(n)) iterations -------


def _reduced_residual(net, u, b):
    keep = np.delete(np.arange(net.n), net.ground_index)
    r = (net.laplacian_matrix @ u - b)[keep]
    return np.linalg.norm(r) / np.linalg.norm(b[keep])


def test_one_column_on_z3_converges_without_a_factor(factors, cg_calls):
    z3 = truncate(IntegerLatticeGen(d=3), 11)
    b = z3.delta(z3.origin)
    u = solve_grounded(z3, b)
    assert factors == [] and cg_calls == [math.ceil(math.sqrt(z3.n - 1))]
    assert _reduced_residual(z3, u, b) <= 1e-12
    # the factored answer, from a fresh network and two columns
    fresh = truncate(IntegerLatticeGen(d=3), 11)
    lu_u = solve_grounded(fresh, np.column_stack([b, b]))[:, 0]
    assert len(factors) == 1
    np.testing.assert_allclose(u, lu_u, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize(
    "gen, k", [(IntegerLineGen(), 200), (IntegerLatticeGen(d=2), 40)], ids=["line-200", "Z2-40"]
)
def test_budget_miss_factors_once_and_returns_the_factor_bits(factors, cg_calls, gen, k):
    net = truncate(gen, k)
    keep = np.delete(np.arange(net.n), net.ground_index)
    b = net.delta(net.origin)
    u = solve_grounded(net, b)
    assert len(cg_calls) == 1 and len(factors) == 1
    lu = factors[0][1]
    np.testing.assert_array_equal(u[keep], lu.solve(b[keep, None])[:, 0])
    # a missed system goes straight to its factor: no second CG run
    v = solve_grounded(net, net.delta(net.labels[1]))
    assert len(cg_calls) == 1 and len(factors) == 1
    np.testing.assert_array_equal(v[keep], lu.solve(net.delta(net.labels[1])[keep, None])[:, 0])


def test_cg_breakdown_below_direct_limit_is_solver_error(monkeypatch):
    monkeypatch.setattr(spla, "cg", lambda a, b, **kw: (np.zeros_like(b), -1))

    def no_splu(*args, **kwargs):
        pytest.fail("a CG breakdown fell back to a sparse LU")

    monkeypatch.setattr(spla, "splu", no_splu)
    net = truncate(BinaryTreeGen(), 3)
    with pytest.raises(SolverError, match=r"did not converge \(info=-1\)"):
        solve_grounded(net, net.delta("r"))


def test_zero_right_hand_sides(monkeypatch):
    # above DIRECT_LIMIT: the binary tree at k=14 has 32,767 unknowns
    assert solve_dipoles(truncate(BinaryTreeGen(), 14), []) == []
    net = truncate(BinaryTreeGen(), 3)
    assert solve_dipoles(net, []) == []
    # a single vertex: the reduced system has no unknowns
    alone = Network([], origin="a", vertices=["a"])
    assert solve_grounded(alone, np.zeros((1, 0))).shape == (1, 0)
    assert solve_dipoles(alone, ["a"])[0].values.tolist() == [0.0]
    for limit in (solvers.DIRECT_LIMIT, 3):
        monkeypatch.setattr(solvers, "DIRECT_LIMIT", limit)
        fresh = truncate(BinaryTreeGen(), 3)
        assert solve_grounded(fresh, np.zeros((fresh.n, 0))).shape == (fresh.n, 0)
