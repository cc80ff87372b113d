import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from netenergy import (
    CoercivityError,
    InnerSpace,
    LinOp,
    Network,
    OperatorError,
    SpectralMeasure,
    adjoint,
    dirac_spaces,
    dstar_constant,
    form_operator_roundtrip,
    friedrichs,
    krein_lambda,
    krein_network_extension,
    network_kl,
    operator_norm,
    pair_spectrum_check,
    random_network,
    solve_dipoles,
    spectral_measure,
    verify_pair,
)
from netenergy import operators
from netenergy.energy import energy_pairings


def _spd(rng, n, shift=0.5):
    r = rng.standard_normal((n, n))
    return r.T @ r + shift * np.eye(n)


# -- spaces and raw operators ----------------------------------------------


def test_inner_space_basics():
    g = np.array([[2.0, 1.0], [1.0, 2.0]])
    space = InnerSpace.from_matrix(g, labels=("x", "y"))
    assert space.dim == 2
    assert space.labels == ("x", "y")
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert space.inner(u, v) == pytest.approx(1.0)
    assert space.norm(u) == pytest.approx(np.sqrt(2.0))
    np.testing.assert_allclose(g @ space.solve_gram(g), g)


def test_inner_space_rejects_indefinite():
    with pytest.raises(OperatorError):
        InnerSpace.from_matrix(np.array([[1.0, 3.0], [3.0, 1.0]]))


def test_linop_must_fit_spaces(rng):
    h1 = InnerSpace.standard(3)
    h2 = InnerSpace.standard(2)
    op = LinOp(domain=h1, codomain=h2, matrix=np.ones((2, 3)))
    np.testing.assert_allclose(op.apply([1.0, 1.0, 1.0]), [3.0, 3.0])
    assert not op.is_endomorphism()
    with pytest.raises(OperatorError):
        LinOp(domain=h1, codomain=h2, matrix=np.ones((3, 2)))


def test_adjoint_identity(rng):
    for _ in range(10):
        n, m = rng.integers(2, 7, size=2)
        h1 = InnerSpace.from_matrix(_spd(rng, int(n)))
        h2 = InnerSpace.from_matrix(_spd(rng, int(m)))
        a = LinOp(domain=h1, codomain=h2, matrix=rng.standard_normal((int(m), int(n))))
        star = adjoint(a)
        for _ in range(3):
            phi = rng.standard_normal(int(n))
            psi = rng.standard_normal(int(m))
            lhs = h2.inner(a.apply(phi), psi)
            rhs = h1.inner(phi, star.apply(psi))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
        # the adjoint of the adjoint is the original map
        np.testing.assert_allclose(adjoint(star).matrix, a.matrix, atol=1e-9)


def test_verify_pair_accepts_true_adjoints_and_flags_fakes(rng):
    h1 = InnerSpace.from_matrix(_spd(rng, 4))
    h2 = InnerSpace.from_matrix(_spd(rng, 3))
    a = LinOp(domain=h1, codomain=h2, matrix=rng.standard_normal((3, 4)))
    report = verify_pair(a, adjoint(a))
    assert report.is_pair
    assert report.residual <= 1e-10
    wrong = LinOp(domain=h2, codomain=h1, matrix=adjoint(a).matrix + 0.01)
    bad = verify_pair(a, wrong)
    assert not bad.is_pair
    assert bad.residual > 1e-10


def test_verify_pair_needs_matching_spaces(rng):
    h1 = InnerSpace.standard(3)
    h2 = InnerSpace.standard(2)
    a = LinOp(domain=h1, codomain=h2, matrix=np.zeros((2, 3)))
    with pytest.raises(OperatorError, match="spaces"):
        verify_pair(a, a)


def test_operator_norm_diagonal():
    h = InnerSpace.standard(2)
    op = LinOp(domain=h, codomain=h, matrix=np.diag([3.0, 1.0]))
    assert operator_norm(op) == pytest.approx(3.0)
    s = h.matrix @ op.matrix
    assert np.max(np.abs(s - s.T)) == 0.0


def test_pair_spectrum_check_detects_scaling(rng):
    h1 = InnerSpace.from_matrix(_spd(rng, 4))
    h2 = InnerSpace.from_matrix(_spd(rng, 4))
    a = LinOp(domain=h1, codomain=h2, matrix=rng.standard_normal((4, 4)))
    assert pair_spectrum_check(a, adjoint(a))
    doubled = LinOp(domain=h2, codomain=h1, matrix=2.0 * adjoint(a).matrix)
    assert not pair_spectrum_check(a, doubled)


# -- extensions ------------------------------------------------------------


def test_friedrichs_identity_on_diagonal():
    space = InnerSpace.standard(3)
    a = LinOp(domain=space, codomain=space, matrix=np.diag([2.0, 5.0, 1.0]))
    ext = friedrichs(space, a)
    np.testing.assert_allclose(ext.matrix, a.matrix, atol=1e-10)


def test_friedrichs_random_geometry(rng):
    for _ in range(10):
        n = int(rng.integers(2, 12))
        g = _spd(rng, n)
        space = InnerSpace.from_matrix(g)
        form = g + _spd(rng, n, shift=0.05)
        a = LinOp(domain=space, codomain=space, matrix=space.solve_gram(form))
        ext = friedrichs(space, a)
        scale = 1.0 + np.abs(a.matrix).max()
        assert np.max(np.abs(ext.matrix - a.matrix)) / scale < 1e-8


def test_friedrichs_refuses_non_coercive():
    space = InnerSpace.standard(2)
    a = LinOp(domain=space, codomain=space, matrix=0.5 * np.eye(2))
    with pytest.raises(CoercivityError):
        friedrichs(space, a)
    # the slack below the bound c is tol, whatever c is
    a = LinOp(domain=space, codomain=space, matrix=np.diag([1.0 - 5e-11, 2.0]))
    friedrichs(space, a)
    a = LinOp(domain=space, codomain=space, matrix=np.diag([1.0 - 2e-10, 2.0]))
    with pytest.raises(CoercivityError):
        friedrichs(space, a)
    a = LinOp(domain=space, codomain=space, matrix=np.diag([-1e3, 1.0]))
    friedrichs(space, a, c=-1e3 + 5e-11)
    with pytest.raises(CoercivityError, match="bounded below by -999.9999999998"):
        friedrichs(space, a, c=-1e3 + 2e-10)
    a = LinOp(domain=space, codomain=space, matrix=np.diag([1e12 - 50.0, 1e12]))
    with pytest.raises(CoercivityError):
        friedrichs(space, a, c=1e12)


def test_semibounded_shifts_and_returns():
    space = InnerSpace.standard(2)
    a = LinOp(domain=space, codomain=space, matrix=np.diag([-1.0, 2.0]))
    ext = friedrichs(space, a, c=-1.0)
    np.testing.assert_allclose(ext.matrix, a.matrix, atol=1e-9)
    with pytest.raises(CoercivityError, match="bound"):
        friedrichs(space, a, c=0.0)


def test_semibounded_bound_is_one_shift_of_the_coercive_route(rng):
    for _ in range(20):
        n = int(rng.integers(2, 12))
        g = _spd(rng, n)
        space = InnerSpace.from_matrix(g)
        form = _spd(rng, n, shift=0.05) - 3.0 * g  # smallest eigenvalue > -3
        c = float(sla.eigh(form, g, eigvals_only=True)[0]) - float(rng.uniform(0.0, 2.0))
        a = LinOp(domain=space, codomain=space, matrix=space.solve_gram(form))
        ext = friedrichs(space, a, c=c)
        # the route it replaces: shift A itself, extend coercively, shift back
        s = (1.0 - c) * np.eye(n)
        shifted = friedrichs(space, LinOp(domain=space, codomain=space, matrix=a.matrix + s))
        scale = 1.0 + np.abs(a.matrix).max()
        assert np.max(np.abs(ext.matrix - (shifted.matrix - s))) / scale < 1e-12
        assert np.max(np.abs(ext.matrix - a.matrix)) / scale < 1e-8


def test_friedrichs_factors_each_matrix_once(monkeypatch, rng):
    g = _spd(rng, 6)
    space = InnerSpace.from_matrix(g)
    form = g + _spd(rng, 6, shift=0.05)
    a = LinOp(domain=space, codomain=space, matrix=space.solve_gram(form))
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args[0]))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "cho_factor", "lu_factor", "svd"):
        monkeypatch.setattr(sla, name, counted(name, getattr(sla, name)))
    for name in ("svd", "cond", "solve", "cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    for c in (1.0, -2.0):
        calls.clear()
        ext = friedrichs(space, a, c=c)
        np.testing.assert_allclose(ext.matrix, a.matrix, atol=1e-8)
        assert sorted(name for name, _ in calls) == ["cho_factor", "eigh", "lu_factor"]
        # the one Cholesky is of the (shifted) form Gram: the space's own
        # Gram was factored when the space was built
        form_gram = dict(calls)["cho_factor"]
        np.testing.assert_allclose(form_gram, form + (1.0 - c) * g, rtol=1e-12)


def test_friedrichs_warns_on_ill_conditioned_inclusion():
    space = InnerSpace.standard(2)
    stiff = LinOp(domain=space, codomain=space, matrix=np.diag([1.0, 1e13]))
    with pytest.warns(RuntimeWarning, match="ill conditioned"):
        friedrichs(space, stiff)
    # the condition number is that of the shifted form, 2 here
    shifted = LinOp(domain=space, codomain=space, matrix=np.diag([-1e13, 1.0 - 1e13]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ext = friedrichs(space, shifted, c=-1e13)
    np.testing.assert_array_equal(ext.matrix, shifted.matrix)


def test_roundtrip_standard_space():
    space = InnerSpace.standard(2)
    q = np.array([[2.0, 1.0], [1.0, 2.0]])
    a = form_operator_roundtrip(space, q, "form_to_operator")
    np.testing.assert_allclose(a.matrix, q, atol=1e-10)
    back = form_operator_roundtrip(space, a, "operator_to_form")
    np.testing.assert_allclose(back.matrix, q, atol=1e-10)


def test_roundtrip_validates_inputs():
    space = InnerSpace.standard(2)
    with pytest.raises(CoercivityError):
        form_operator_roundtrip(space, 0.5 * np.eye(2), "form_to_operator")
    with pytest.raises(OperatorError, match="direction"):
        form_operator_roundtrip(space, np.eye(2), "sideways")
    with pytest.raises(OperatorError, match="not symmetric"):
        form_operator_roundtrip(space, [[2.0, 1.0], [0.0, 2.0]], "form_to_operator")
    # asymmetry at rounding level is symmetrized, as in krein_lambda
    q = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])
    a = form_operator_roundtrip(space, q, "form_to_operator")
    np.testing.assert_allclose(a.matrix, 0.5 * (q + q.T), atol=1e-12)


# -- the canonical second-inner-product operator ---------------------------


def test_krein_lambda_diagonal_case():
    h1 = InnerSpace.standard(2)
    lam = krein_lambda(h1, np.diag([2.0, 3.0]))
    np.testing.assert_allclose(lam.matrix, np.diag([2.0, 3.0]))


def test_krein_lambda_defining_identity(rng):
    g1 = _spd(rng, 5)
    r = rng.standard_normal((3, 5))
    g2 = r.T @ r  # rank-deficient second Gram is fine
    h1 = InnerSpace.from_matrix(g1)
    lam = krein_lambda(h1, g2)
    for _ in range(5):
        phi = rng.standard_normal(5)
        assert phi @ g1 @ lam.apply(phi) == pytest.approx(phi @ g2 @ phi, rel=1e-9)


def test_krein_lambda_rejects_indefinite(rng):
    h1 = InnerSpace.standard(2)
    with pytest.raises(OperatorError, match="semidefinite"):
        krein_lambda(h1, np.diag([1.0, -0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_operators_and_grams_are_refused(bad):
    space = InnerSpace.standard(2)
    m = np.array([[2.0, 0.0], [0.0, bad]])
    with pytest.raises(OperatorError, match="operator has a non-finite entry"):
        friedrichs(space, LinOp(domain=space, codomain=space, matrix=m))
    with pytest.raises(OperatorError, match="second Gram has a non-finite entry"):
        krein_lambda(space, m)
    with pytest.raises(OperatorError, match="operator has a non-finite entry"):
        spectral_measure(LinOp(domain=space, codomain=space, matrix=m), [1.0, 1.0])
    good = LinOp(domain=space, codomain=space, matrix=np.eye(2))
    checks = (
        lambda op: verify_pair(op, good),
        lambda op: verify_pair(good, op),
        adjoint,
        operator_norm,
        lambda op: pair_spectrum_check(op, good),
    )
    for check in checks:
        with pytest.raises(OperatorError, match="operator has a non-finite entry"):
            check(LinOp(domain=space, codomain=space, matrix=m))
    lam = krein_lambda(space, np.diag([2.0, 3.0]))
    with pytest.raises(OperatorError, match="phi has a non-finite entry"):
        spectral_measure(lam, [1.0, bad])
    for atom in ((1.0, np.nan), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="nonnegative"):
            SpectralMeasure(atoms=(atom,))


def test_spectral_measure_diagonal():
    h1 = InnerSpace.standard(2)
    lam = krein_lambda(h1, np.diag([2.0, 3.0]))
    mu = spectral_measure(lam, [1.0, 1.0])
    assert mu.atoms == ((2.0, 1.0), (3.0, 1.0))
    assert mu.mass() == pytest.approx(2.0)
    assert mu.first_moment() == pytest.approx(5.0)
    single = spectral_measure(lam, [1.0, 0.0])
    assert single.mass() == pytest.approx(1.0)
    assert single.first_moment() == pytest.approx(2.0)


def test_spectral_measure_json():
    h1 = InnerSpace.standard(2)
    mu = spectral_measure(krein_lambda(h1, np.eye(2)), [1.0, 2.0])
    doc = mu.to_json()
    assert doc[0]["eigenvalue"] == pytest.approx(1.0)
    assert mu.mass() == pytest.approx(5.0)


def test_dstar_constant_by_hand():
    assert dstar_constant(InnerSpace.standard(2), [1.0, 0.0]) == pytest.approx(1.0)
    h = InnerSpace.from_matrix(np.diag([4.0, 1.0]))
    assert dstar_constant(h, [2.0, 0.0]) == pytest.approx(1.0)


# -- the network pair ------------------------------------------------------


def test_dirac_spaces_energy_gram_is_laplacian(p3):
    h1, g2 = dirac_spaces(p3)
    np.testing.assert_allclose(h1.matrix, np.eye(3))
    np.testing.assert_allclose(g2.matrix, p3.laplacian_matrix.toarray())
    assert g2.labels == ("o", "a", "b")


def test_krein_lambda_network_is_laplacian(p3):
    h1, g2 = dirac_spaces(p3)
    lam = krein_lambda(h1, g2)
    np.testing.assert_allclose(lam.matrix, p3.laplacian_matrix.toarray(), atol=1e-12)


def test_network_kl_pair_and_closures(p3):
    k_op, l_op = network_kl(p3)
    report = verify_pair(k_op, l_op, tol=1e-10)
    assert report.is_pair
    kk, ll = krein_network_extension(k_op, l_op)
    np.testing.assert_allclose(
        kk.matrix, p3.laplacian_matrix.toarray(), atol=1e-10
    )
    # kernel-basis pairings <v_y, L*L v_x>_E: Kronecker plus a constant 1
    pairing = ll.domain.matrix @ ll.matrix
    np.testing.assert_allclose(pairing, np.eye(2) + 1.0, atol=1e-10)
    assert pair_spectrum_check(k_op, l_op)


def test_kl_pipeline_forms_each_adjoint_once(monkeypatch):
    # the kl verb: network_kl (its own pair check), the pair check again,
    # then the two closures; only K*K and L*L need an adjoint
    calls = []

    def counted(a):
        calls.append(a)
        return adjoint(a)

    monkeypatch.setattr(operators, "adjoint", counted)
    net = random_network(12, seed=3)
    k_op, l_op = network_kl(net)
    assert verify_pair(k_op, l_op, tol=1e-10).is_pair
    kk, _ = krein_network_extension(k_op, l_op)
    assert [id(a) for a in calls] == [id(k_op), id(l_op)]
    np.testing.assert_allclose(kk.matrix, net.laplacian_matrix.toarray(), atol=1e-9)


def test_network_kl_independent_kernel_route(p3):
    k_op, l_op = network_kl(p3)
    _, ll = krein_network_extension(k_op, l_op)
    kernel_set = list(ll.domain.labels)
    reps = [v.values for v in solve_dipoles(p3, kernel_set)]
    shifted = [p3.delta(x) - p3.delta("o") for x in kernel_set]
    expect = energy_pairings(p3, reps, shifted)
    np.testing.assert_allclose(ll.domain.matrix @ ll.matrix, expect, atol=1e-10)


def test_network_kl_basis_with_ground_and_late_origin():
    # the ground is listed first and the origin third: the Dirac basis is
    # every other vertex in table order, the kernel basis drops the origin
    edges = [("g", "a", 1.0), ("a", "b", 2.0), ("b", "o", 0.5), ("o", "c", 3.0), ("c", "g", 1.5)]
    net = Network(edges, origin="o", vertices=["g", "a", "b", "o", "c"], ground="g")
    k_op, l_op = network_kl(net)
    h1, h2 = k_op.domain, k_op.codomain
    assert h1.labels == ("a", "b", "o", "c")
    assert h2.labels == ("a", "b", "c")
    assert h1.matrix.tobytes() == np.eye(4).tobytes()
    expect = np.zeros((4, 3))
    expect[[0, 1, 3], [0, 1, 2]] = 1.0  # each kernel's own Dirac row
    expect[2] = -1.0  # the origin's row
    np.testing.assert_array_equal(l_op.matrix, expect)
    assert verify_pair(k_op, l_op, tol=1e-10).is_pair
    assert dirac_spaces(net)[0].labels == h1.labels


def test_linop_serialization():
    h = InnerSpace.standard(2, labels=("u", "v"))
    op = LinOp(domain=h, codomain=h, matrix=np.array([[1.0, 2.0], [3.0, 4.0]]))
    doc = op.to_json()
    assert doc["matrix"] == [[1.0, 2.0], [3.0, 4.0]]
    assert doc["domain_labels"] == doc["codomain_labels"] == ["u", "v"]
