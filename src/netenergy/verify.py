"""Deterministic identity suite behind the CLI ``verify`` verb.

Each check exercises one family of exact identities of the package
(reproducing property, Dirac pairing, monopole relations, projections,
extension fixed points, pairing identities, witness constants) with a
seeded corpus, and reports the worst measured residual against the pinned
tolerance.  The registry order is fixed, so output is stable for a fixed
seed.  Sub-identities with their own tolerances are listed in ``details``;
the headline residual/tolerance pair belongs to the sub-identity with the
worst margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import generators, measures
from .energy import energy_form, energy_pairings, to_energy_vector
from .network import Network
from .operators import (
    InnerSpace,
    LinOp,
    OperatorError,
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
    spectral_measure,
    verify_pair,
)
from .solvers import (
    effective_resistance,
    harmonic_space,
    royden_project,
    solve_dipoles,
    solve_grounded,
    solve_monopole,
    transience_probe,
)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    passed: bool
    residual: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.check_id}: residual {self.residual:.3e} "
            f"(tol {self.tolerance:.1e}) {self.description}"
        )

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "description": self.description,
            "passed": self.passed,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "details": self.details,
        }


def _finish(check_id: str, description: str, subs: dict) -> CheckResult:
    """Fold named (residual, tol) sub-identities into one result row.

    The headline numbers come from the sub-identity with the worst
    residual-to-tolerance margin, so a FAIL line always shows the
    offending measurement.
    """
    worst_key = max(subs, key=lambda k: subs[k][0] / subs[k][1])
    residual, tol = subs[worst_key]
    return CheckResult(
        check_id=check_id,
        description=description,
        passed=all(r <= t for r, t in subs.values()),
        residual=float(residual),
        tolerance=float(tol),
        details={
            k: {"residual": float(r), "tol": float(t), "passed": bool(r <= t)}
            for k, (r, t) in subs.items()
        },
    )


def _random_corpus(seed: int, count: int = 25):
    rng = np.random.default_rng(seed)
    nets = [
        generators.random_network(int(rng.integers(5, 51)), seed=rng, extra_edges=0.7)
        for _ in range(count)
    ]
    return rng, nets


# -- network-side checks ---------------------------------------------------


def check_reproducing_kernel(seed: int) -> CheckResult:
    """<v_x, u>_E = u(x) - u(o) across a random corpus."""
    rng, nets = _random_corpus(seed)
    worst = 0.0
    for net in nets:
        kernels = solve_dipoles(net, net.labels)
        reps = [v.values for v in kernels]
        us = rng.standard_normal((20, net.n))
        pair = energy_pairings(net, reps, list(us))
        target = us.T - us[:, net.origin_index]
        rel = np.abs(pair - target) / (1.0 + np.abs(target))
        worst = max(worst, float(rel.max()))
    return _finish(
        "reproducing-kernel",
        "energy kernels reproduce point evaluations on 25 random networks",
        {"reproducing": (worst, 1e-8)},
    )


def check_dirac_pairing(seed: int) -> CheckResult:
    """<delta_x, u>_E equals the Laplacian of u at x."""
    rng, nets = _random_corpus(seed)
    worst = 0.0
    for net in nets:
        deltas = [net.delta(x) for x in net.labels]
        us = rng.standard_normal((20, net.n))
        laps = np.vstack([net.laplacian(u) for u in us])
        pair = energy_pairings(net, deltas, list(us))
        rel = np.abs(pair - laps.T) / (1.0 + np.abs(laps.T))
        worst = max(worst, float(rel.max()))
    return _finish(
        "dirac-pairing",
        "Dirac pairings under the energy form recover the Laplacian pointwise",
        {"pairing": (worst, 1e-10)},
    )


def check_monopole_identities(seed: int) -> CheckResult:
    """Kronecker pairing and semiboundedness of monopoles on wired trees."""
    rng = np.random.default_rng(seed)
    kron_worst = 0.0
    semi_worst = 0.0
    for depth in (5, 8):
        trunc = generators.truncate(generators.BinaryTreeGen(), depth)
        inner = [lbl for lbl in trunc.labels if lbl != trunc.ground]
        sample = [s for s in inner if len(s) <= 3] + [inner[len(inner) // 2]]
        sample = list(dict.fromkeys(sample))
        rhs = np.zeros((trunc.n, len(sample)))
        for j, x in enumerate(sample):
            rhs[trunc.index(x), j] = 1.0
        ws = solve_grounded(trunc, rhs)
        deltas = [trunc.delta(x) for x in sample]
        pair = energy_pairings(trunc, [ws[:, j] for j in range(len(sample))], deltas)
        kron_worst = max(kron_worst, float(np.max(np.abs(pair - np.eye(len(sample))))))
        for _ in range(3):
            xi = rng.standard_normal(len(sample))
            combo_w = ws @ xi
            combo_d = np.vstack(deltas).T @ xi
            lhs = energy_form(trunc, combo_w, combo_d)
            target = float(xi @ xi)
            semi_worst = max(semi_worst, abs(lhs - target) / (1.0 + target))
    return _finish(
        "monopole-identities",
        "monopole pairings are Kronecker and the induced form is a plain sum of squares",
        {"kronecker": (kron_worst, 1e-8), "semibounded": (semi_worst, 1e-8)},
    )


def check_royden_split(seed: int) -> CheckResult:
    """Orthogonal split into finitely-supported and harmonic parts."""
    rng = np.random.default_rng(seed)
    recon_worst = 0.0
    cross_worst = 0.0
    harm_resid = 0.0
    finite_harm = 0.0
    trunc = generators.truncate(generators.BinaryTreeGen(), 6)
    boundary = [lbl for lbl in trunc.labels if len(lbl) == 7] + [trunc.ground]
    basis = harmonic_space(trunc, boundary)
    probes = [to_energy_vector(trunc, rng.standard_normal(trunc.n)) for _ in range(5)]
    probes.append(to_energy_vector(trunc, trunc.delta("r")))
    for u in probes:
        fin, harm = royden_project(trunc, u, boundary=boundary)
        recon_worst = max(
            recon_worst, float(np.max(np.abs(fin.values + harm.values - u.values)))
        )
        cross_worst = max(cross_worst, abs(fin.inner(harm)) / u.energy)
    # a harmonic input is its own projection
    u = to_energy_vector(trunc, basis[0] - basis[1] + 0.5 * basis[2])
    fin, _ = royden_project(trunc, u, boundary=boundary)
    harm_resid = fin.norm()
    for net in (generators.path(7), generators.cycle(8)):
        u = to_energy_vector(net, rng.standard_normal(net.n))
        _, harm = royden_project(net, u)
        finite_harm = max(finite_harm, float(np.max(np.abs(harm.values))))
    return _finish(
        "royden-split",
        "energy classes split orthogonally against the harmonic span",
        {
            "reconstruction": (recon_worst, 1e-10),
            "orthogonality": (cross_worst, 1e-10),
            "harmonic-fixed": (harm_resid, 1e-8),
            "finite-harmonics-vanish": (finite_harm, 1e-15),
        },
    )


def check_wired_resistance(seed: int) -> CheckResult:
    """Wired resistances against series/parallel oracles, plus verdicts."""
    del seed  # fully deterministic
    subs = {}

    # binary tree: reduce from the deepest level up; the two rewired edges
    # at a deepest vertex merge to conductance 2, i.e. resistance 1/2
    def tree_oracle(k: int) -> float:
        r = 0.5
        for _ in range(k - 1):
            r = (1.0 + r) / 2.0
        return (1.0 + r) / 2.0

    tree = generators.BinaryTreeGen()
    worst = 0.0
    for k in range(1, 13):
        measured = effective_resistance(generators.truncate(tree, k), "r", "ground")
        worst = max(worst, abs(measured - tree_oracle(k)))
    subs["tree-oracle"] = (worst, 1e-10)
    verdict, report = transience_probe(tree, tol=2e-4, k_max=20)
    subs["tree-limit"] = (abs(report.extrapolated_limit - 1.0), 1e-3)
    subs["tree-by-depth-20"] = (abs(report.values[-1] - 1.0), 1e-3)
    subs["tree-transient"] = (0.0 if verdict == "transient" else 1.0, 0.5)

    # unit half line: the level-k resistance is exactly k ohms in series
    line = generators.GeometricLineGen(ratio=1.0)
    worst = 0.0
    for k in range(1, 41):
        measured = effective_resistance(generators.truncate(line, k), 0, "ground")
        worst = max(worst, abs(measured - float(k)))
    subs["half-line-exact-k"] = (worst, 1e-12)
    verdict, _ = transience_probe(line, tol=1e-9, k_max=1101, stride=100)
    subs["half-line-recurrent"] = (0.0 if verdict == "recurrent" else 1.0, 0.5)

    # two-sided integers: two branches of k series ohms each, ends rewired
    # to the same ground -> (k + 1)/2 in parallel
    integers = generators.IntegerLineGen()
    worst = 0.0
    for k in range(1, 41):
        measured = effective_resistance(generators.truncate(integers, k), 0, "ground")
        worst = max(worst, abs(measured - (k + 1) / 2.0))
    subs["integers-exact"] = (worst, 1e-12)
    verdict, _ = transience_probe(integers, tol=1e-9, k_max=2101, stride=200)
    subs["integers-recurrent"] = (0.0 if verdict == "recurrent" else 1.0, 0.5)

    # geometric half line, ratio 2: partial sums of sum 2^-n, limit 2
    geo = generators.GeometricLineGen(ratio=2.0)
    worst = 0.0
    for k in range(1, 21):
        measured = effective_resistance(generators.truncate(geo, k), 0, "ground")
        worst = max(worst, abs(measured - sum(2.0 ** (-i) for i in range(k))))
    subs["geometric-oracle"] = (worst, 1e-10)
    _, report = solve_monopole(geo, 0, tol=1e-9, k_max=40)
    subs["geometric-limit"] = (abs(report.extrapolated_limit - 2.0), 1e-6)

    return _finish(
        "wired-resistance",
        "wired truncation resistances match series/parallel oracles and verdicts",
        subs,
    )


def check_l2_energy_bound(seed: int) -> CheckResult:
    """Pairings of energy kernels against l2 stay within the sqrt(2) bound."""
    rng = np.random.default_rng(seed)
    bound = math.sqrt(2.0)
    worst = 0.0
    cases = [
        generators.path(6),
        generators.cycle(6),
        generators.binary_tree(4),
        generators.random_network(20, seed=rng),
        generators.truncate(generators.BinaryTreeGen(), 4),
        generators.truncate(generators.IntegerLineGen(), 6),
    ]
    for net in cases:
        h1, _ = dirac_spaces(net)
        deltas = [net.delta(x) for x in h1.labels]
        targets = [x for x in h1.labels if x != net.origin][:6]
        for v in solve_dipoles(net, targets):
            pairings = energy_pairings(net, deltas, [v.values])[:, 0]
            c = dstar_constant(h1, pairings)
            worst = max(worst, max(c - bound, 0.0))
    return _finish(
        "l2-energy-bound",
        "kernel pairings against l2 stay within the sqrt(2) bound",
        {"bound": (worst, 1e-8)},
    )


# -- operator-side checks --------------------------------------------------


def _random_spd(rng, n: int, shift: float = 0.5) -> np.ndarray:
    r = rng.standard_normal((n, n))
    return r.T @ r + shift * np.eye(n)


def check_friedrichs_fixed_point(seed: int) -> CheckResult:
    """The extension of a coercive operator is the operator itself."""
    rng = np.random.default_rng(seed)
    agree_worst = 0.0
    eig_worst = 0.0
    norm_worst = 0.0
    fixed_worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 41))
        g = _random_spd(rng, n)
        space = InnerSpace.from_matrix(g)
        form = g + _random_spd(rng, n, shift=0.05)
        a = LinOp(domain=space, codomain=space, matrix=space.solve_gram(form))
        ext = friedrichs(space, a)
        scale = 1.0 + float(np.abs(a.matrix).max())
        agree_worst = max(agree_worst, float(np.max(np.abs(ext.matrix - a.matrix))) / scale)
        s = 0.5 * (g @ ext.matrix + (g @ ext.matrix).T)
        lam = sla.eigh(s, g, eigvals_only=True)
        eig_worst = max(eig_worst, 1.0 - float(lam[0]))
        form_space = InnerSpace.from_matrix(0.5 * (g @ a.matrix + (g @ a.matrix).T))
        j = LinOp(domain=form_space, codomain=space, matrix=np.eye(n))
        norm_worst = max(norm_worst, operator_norm(j) - 1.0)
        jj_star = j @ adjoint(j)
        fixed_worst = max(
            fixed_worst,
            float(np.max(np.abs(jj_star.matrix @ a.matrix - np.eye(n)))) / scale,
        )
    return _finish(
        "friedrichs-fixed-point",
        "extension through the inclusion route returns coercive operators unchanged",
        {
            "agreement": (agree_worst, 1e-8),
            "jj-star-fixed-point": (fixed_worst, 1e-8),
            "spectrum-above-one": (max(eig_worst, 0.0), 1e-8),
            "inclusion-contractive": (max(norm_worst, 0.0), 1e-10),
        },
    )


def check_form_operator_roundtrip(seed: int) -> CheckResult:
    """Forms above the norm and operators above one translate both ways."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 21))
        g = _random_spd(rng, n)
        space = InnerSpace.from_matrix(g)
        q = g + _random_spd(rng, n, shift=0.05)
        a = form_operator_roundtrip(space, q, "form_to_operator")
        q_back = form_operator_roundtrip(space, a, "operator_to_form")
        worst = max(
            worst,
            float(np.max(np.abs(q_back.matrix - q))) / (1.0 + float(np.abs(q).max())),
        )
        a2 = form_operator_roundtrip(space, q_back, "form_to_operator")
        worst = max(
            worst,
            float(np.max(np.abs(a2.matrix - a.matrix)))
            / (1.0 + float(np.abs(a.matrix).max())),
        )
    return _finish(
        "form-operator-roundtrip",
        "closed forms and self-adjoint operators above one are in bijection",
        {"roundtrip": (worst, 1e-8)},
    )


def check_krein_identity(seed: int) -> CheckResult:
    """<phi, Lambda phi>_1 returns the second norm; the network case."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    mass_worst = 0.0
    moment_worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        g1 = _random_spd(rng, n)
        r = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        g2 = r.T @ r  # possibly rank-deficient, still admissible
        lam = krein_lambda(InnerSpace.from_matrix(g1), g2)
        for _ in range(3):
            phi = rng.standard_normal(n)
            lhs = float(phi @ g1 @ lam.apply(phi))
            rhs = float(phi @ g2 @ phi)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        mu = spectral_measure(lam, phi)
        n1 = float(phi @ g1 @ phi)
        n2 = float(phi @ g2 @ phi)
        mass_worst = max(mass_worst, abs(mu.mass() - n1) / (1.0 + n1))
        moment_worst = max(moment_worst, abs(mu.first_moment() - n2) / (1.0 + n2))
    p3 = Network([("o", "a", 1.0), ("a", "b", 2.0)], origin="o")
    h1, g2 = dirac_spaces(p3)
    lam = krein_lambda(h1, g2)
    net_res = float(np.max(np.abs(lam.matrix - p3.laplacian_matrix.toarray())))
    return _finish(
        "krein-identity",
        "the canonical operator of a second inner product reproduces its norm",
        {
            "identity": (worst, 1e-8),
            "spectral-mass": (mass_worst, 1e-8),
            "spectral-moment": (moment_worst, 1e-8),
            "network-case-is-laplacian": (net_res, 1e-10),
        },
    )


def check_network_symmetric_pair(seed: int) -> CheckResult:
    """K/L pairing, Laplacian closure, kernel identity, matching spectra."""
    del seed  # fixed graphs
    pair_worst = 0.0
    lap_worst = 0.0
    kernel_worst = 0.0
    spectra_ok = True
    cases = [
        Network([("o", "a", 1.0), ("a", "b", 2.0)], origin="o"),
        generators.cycle(6),
        generators.binary_tree(4),
    ]
    for net in cases:
        k_op, l_op = network_kl(net)
        report = verify_pair(k_op, l_op, tol=1e-10)
        pair_worst = max(pair_worst, report.residual)
        kk, ll = krein_network_extension(k_op, l_op)
        lap_worst = max(
            lap_worst, float(np.max(np.abs(kk.matrix - net.laplacian_matrix.toarray())))
        )
        # <v_y, L*L v_x>_E against <v_y, delta_x - delta_o>_E computed
        # directly from the edge sum, an independent route
        kernel_set = list(ll.domain.labels)
        reps = [v.values for v in solve_dipoles(net, kernel_set)]
        shifted = [net.delta(x) - net.delta(net.origin) for x in kernel_set]
        expect = energy_pairings(net, reps, shifted)
        pairing = ll.domain.matrix @ ll.matrix  # <v_y, L*L v_x>_E
        kernel_worst = max(kernel_worst, float(np.max(np.abs(pairing - expect))))
        spectra_ok = spectra_ok and pair_spectrum_check(k_op, l_op, tol=1e-8)
    return _finish(
        "network-symmetric-pair",
        "the l2/energy operators form a symmetric pair extending the Laplacian",
        {
            "pairing": (pair_worst, 1e-10),
            "laplacian-closure": (lap_worst, 1e-10),
            "kernel-identity": (kernel_worst, 1e-8),
            "nonzero-spectra": (0.0 if spectra_ok else 1.0, 0.5),
        },
    )


# -- measure-side checks ---------------------------------------------------


def check_cantor_witness(seed: int) -> CheckResult:
    """Witness constants match (3/2)^(n/2) and grow at the predicted rate."""
    del seed  # closed-form comparison
    _, report = measures.cantor_witness(12)
    worst = max(abs(m - p) for _, m, p in report.rows)
    slope = report.log_slope(min_level=2)
    target = 0.5 * math.log(1.5)
    return _finish(
        "cantor-witness",
        "singular pairing constants blow up geometrically at the predicted rate",
        {
            "closed-form": (worst, 1e-8),
            "log-slope-1pct": (abs(slope - target) / target, 1e-2),
        },
    )


def check_radon_nikodym(seed: int) -> CheckResult:
    """Density operators are diagonal ratios; singular pairs are refused."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 9))
        w1 = rng.uniform(0.1, 2.0, size=m)
        mu1 = measures.DiscreteMeasure(points=tuple(range(m)), weights=w1)
        sub = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
        density = rng.uniform(0.1, 3.0, size=len(sub))
        mu2 = measures.DiscreteMeasure(
            points=tuple(int(i) for i in sub),
            weights=w1[sub] * density,
        )
        lam = measures.rn_lambda(mu1, mu2)
        expect = np.zeros((m, m))
        expect[sub, sub] = density
        worst = max(worst, float(np.max(np.abs(lam.matrix - expect))))
    rejected = False
    try:
        measures.rn_lambda(
            measures.DiscreteMeasure(points=(0, 1), weights=np.array([1.0, 1.0])),
            measures.DiscreteMeasure(points=(1, 2), weights=np.array([1.0, 1.0])),
        )
    except OperatorError:
        rejected = True
    return _finish(
        "radon-nikodym",
        "density operators are diagonal ratios; singular parts are rejected",
        {"diagonal": (worst, 1e-12), "rejects-singular": (0.0 if rejected else 1.0, 0.5)},
    )


REGISTRY = (
    ("network", check_reproducing_kernel),
    ("network", check_dirac_pairing),
    ("network", check_monopole_identities),
    ("network", check_royden_split),
    ("operators", check_friedrichs_fixed_point),
    ("operators", check_form_operator_roundtrip),
    ("operators", check_krein_identity),
    ("operators", check_network_symmetric_pair),
    ("network", check_l2_energy_bound),
    ("network", check_wired_resistance),
    ("measures", check_cantor_witness),
    ("measures", check_radon_nikodym),
)

SUITES = ("all", "network", "operators", "measures")


def run_suite(suite: str = "all", seed: int = 42) -> list[CheckResult]:
    """Run the identity checks of one suite in registry order."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    return [
        fn(seed + offset)
        for offset, (group, fn) in enumerate(REGISTRY)
        if suite == "all" or group == suite
    ]
