"""Grounded linear solves on networks: kernels, monopoles, projections.

Every solve here reduces to one symmetric positive-definite system: the
graph Laplacian with one pinned vertex deleted.  On a wired truncation the
pinned vertex is the ground (held at potential zero); on a plain finite
network it is the origin, and the right-hand side must sum to zero for the
full system to be consistent.

Harmonic extensions (:func:`harmonic_space`, :func:`royden_project`) are
the same kind of system with a boundary set pinned instead: the Dirichlet
problem on the vertices off the boundary.  A reduced system is factored
once per network and pinned set and reused for every right-hand side.  The
factorization is a sparse LU ordered by minimum degree on A + A^T with its
pivots taken from the diagonal, which is safe because every reduced system
is symmetric positive definite (a nonempty pinned set on a connected
network).  Above ``DIRECT_LIMIT`` unknowns a Jacobi preconditioned
conjugate-gradient iteration is used instead, for both kinds of solve.

Solvers return :class:`~netenergy.energy.EnergyVector` classes where the
result is an energy-space element (dipoles, projections); raw potentials
keep their grounded gauge where the pointwise values matter (monopole
reports record w(x) with w(ground) = 0, which equals the monopole energy).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .energy import EnergyVector, energy_form, to_energy_vector
from .generators import GraphGenerator, _check_count, truncate
from .network import Network, NetworkError, _check_nonnegative

#: Largest reduced system handed to the direct sparse factorization
#: (symmetric minimum-degree ordering, diagonal pivots).
DIRECT_LIMIT = 10_000

#: Default absolute tolerance on successive monopole energies.
MONOPOLE_TOL = 1e-6

#: Default number of exhaustion levels.
K_MAX = 30

#: A probe says "recurrent" once R_k exceeds this multiple of R_1.
RECURRENCE_RATIO = 1e3


class SolverError(RuntimeError):
    """A linear solve failed or was handed an inconsistent system."""


_solver_cache: "weakref.WeakKeyDictionary[Network, dict]" = weakref.WeakKeyDictionary()


def _reduced_solver(net: Network, pinned=None):
    """(keep, solve) for the Laplacian with the ``pinned`` rows and columns
    deleted: a boundary index set, by default the ground (else the origin).
    ``solve`` takes the right-hand sides as the columns of a 2-d array."""
    if pinned is None:
        pinned = [net.origin_index if net.ground_index is None else net.ground_index]
    pinned = tuple(sorted(set(pinned)))
    cache = _solver_cache.setdefault(net, {})
    if pinned in cache:
        return cache[pinned]
    keep = np.delete(np.arange(net.n), pinned)
    lap = net.laplacian_matrix.tocsc()
    red = lap[keep, :][:, keep]
    if keep.size == 0:
        def solve(b):
            return np.zeros_like(b)
    elif keep.size <= DIRECT_LIMIT:
        try:
            # SPD: minimum degree on A + A^T, pivots from the diagonal
            lu = spla.splu(
                red,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise SolverError(f"reduced system is singular: {exc}") from exc
        solve = lu.solve
    else:
        diag = red.diagonal()
        precond = sp.diags(1.0 / diag)

        def solve(b):
            def one(col):
                x, info = spla.cg(red, col, M=precond, rtol=1e-12, atol=0.0)
                if info != 0:
                    raise SolverError(f"conjugate gradient did not converge (info={info})")
                return x

            return np.column_stack([one(b[:, j]) for j in range(b.shape[1])])

    cache[pinned] = (keep, solve)
    return keep, solve


def solve_grounded(net: Network, rhs) -> np.ndarray:
    """Solve lap(u) = rhs with the pinned vertex held at zero.

    The pinned vertex is the ground when the network has one, else the
    origin; in the latter case ``rhs`` must sum to zero or the full system
    is inconsistent.  ``rhs`` is a vertex function (an array of ``n``
    numbers in table order) or an ``(n, m)`` array whose columns are
    independent right-hand sides; anything else is a ``NetworkError``.
    """
    arr = np.asarray(rhs)
    if arr.dtype.kind not in "iuf" or arr.ndim not in (1, 2) or arr.shape[0] != net.n:
        raise NetworkError(
            f"rhs must be numbers of shape ({net.n},) or ({net.n}, m), "
            f"got {arr.dtype} of shape {arr.shape}"
        )
    cols = arr.reshape(net.n, -1).astype(float, copy=False)

    if net.ground_index is None:
        sums = cols.sum(axis=0)
        scale = max(1.0, float(np.abs(cols).max(initial=0.0)))
        if np.any(np.abs(sums) > 1e-9 * scale):
            raise SolverError(
                "rhs must sum to zero on a network without a ground vertex"
            )

    keep, solve = _reduced_solver(net)
    out = np.zeros_like(cols)
    out[keep, :] = solve(cols[keep, :]).reshape(keep.size, -1)
    return out[:, 0] if arr.ndim == 1 else out


def solve_dipole(net: Network, x) -> EnergyVector:
    """Energy-kernel element v_x: lap(v_x) = delta_x - delta_o, v_x(o) = 0.

    Pairing any u against v_x in energy reproduces u(x) - u(o).  For the
    origin itself the zero class is returned.
    """
    return solve_dipoles(net, [x])[0]


def solve_dipoles(net: Network, xs) -> list[EnergyVector]:
    """Batched :func:`solve_dipole` sharing one factorization."""
    o = net.origin_index
    idxs = [net.index(x) for x in xs]
    rhs = np.zeros((net.n, len(idxs)))
    rhs[idxs, np.arange(len(idxs))] = 1.0
    rhs[o, :] -= 1.0  # the origin's own column cancels to zero
    sols = solve_grounded(net, rhs)
    return [to_energy_vector(net, sols[:, j]) for j in range(sols.shape[1])]


def effective_resistance(net: Network, x, y) -> float:
    """R(x, y) = v(x) - v(y) where lap(v) = delta_x - delta_y.

    Equals the energy of v.  On a wired truncation this is the wired
    resistance; taking ``y`` to be the ground gives the wired resistance
    to the collapsed exterior.
    """
    xi, yi = net.index(x), net.index(y)
    if xi == yi:
        return 0.0
    rhs = np.zeros(net.n)
    rhs[xi] += 1.0
    rhs[yi] -= 1.0
    u = solve_grounded(net, rhs)
    return float(u[xi] - u[yi])


# -- exhaustion reports ----------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level record of an exhaustion computation.

    ``levels`` holds ``(k, value, energy)`` rows with strictly increasing
    ``k``; a report with ``converged`` False is still returned in full,
    callers decide what a partial run means.  ``extrapolated_limit`` is NaN
    when the energies give no justified estimate of their limit.
    """

    levels: tuple
    extrapolated_limit: float
    converged: bool
    tol: float

    def __post_init__(self):
        rows = tuple((int(k), float(v), float(e)) for k, v, e in self.levels)
        ks = [r[0] for r in rows]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("report levels must be strictly increasing in k")
        object.__setattr__(self, "levels", rows)

    @property
    def energies(self) -> np.ndarray:
        return np.array([row[2] for row in self.levels])

    @property
    def values(self) -> np.ndarray:
        return np.array([row[1] for row in self.levels])

    @property
    def ks(self) -> np.ndarray:
        return np.array([row[0] for row in self.levels], dtype=int)

    def summary(self) -> dict:
        limit = self.extrapolated_limit
        return {
            "levels": [list(row) for row in self.levels],
            # JSON has no NaN: an unknown limit is written as null
            "extrapolated_limit": limit if math.isfinite(limit) else None,
            "converged": self.converged,
            "tol": self.tol,
        }


def _aitken(seq) -> float:
    """Aitken delta-squared estimate of the limit of a sequence tail; NaN
    unless the last two increments shrink geometrically (ratio in [0, 1))."""
    if len(seq) < 3:
        return math.nan
    e1, e2, e3 = (float(x) for x in seq[-3:])
    if e2 == e1 or not 0.0 <= (e3 - e2) / (e2 - e1) < 1.0:
        return math.nan
    return e3 - (e3 - e2) ** 2 / (e3 - 2.0 * e2 + e1)


def _exhaust(generator, x, tol, k_max, stride=1, recurrence_ratio=math.inf):
    """The level loop of :func:`solve_monopole` and :func:`transience_probe`
    (which document its rows and verdicts) at ``x`` (None: the origin) on
    levels 1, 1 + stride, ... <= ``k_max``.  Returns (verdict, report, last
    truncation, its potential)."""
    if not isinstance(generator, GraphGenerator):
        raise NetworkError(f"expected a generator, got {type(generator).__name__}")
    _check_count("k_max", k_max, 1)
    _check_count("stride", stride, 1)
    _check_nonnegative("tol", tol)
    x = generator.origin if x is None else x

    rows = []
    verdict = "inconclusive"
    for k in range(1, k_max + 1, stride):
        trunc = truncate(generator, k)
        if trunc.ground is None:
            raise SolverError("generator exhausted; finite networks carry no monopole")
        if x not in trunc:
            raise NetworkError(f"monopole vertex {x!r} must lie in the first level")
        w = solve_grounded(trunc, trunc.delta(x))
        rows.append((k, float(w[trunc.index(x)]), energy_form(trunc, w)))
        if len(rows) >= 2:
            if abs(rows[-1][2] - rows[-2][2]) <= tol:
                verdict = "transient"
                break
            diffs = np.diff([r[1] for r in rows])
            if (
                len(diffs) >= 2
                and rows[-1][1] > recurrence_ratio * rows[0][1]
                and np.all(diffs > 0)
                and diffs[-1] >= 0.99 * diffs[0]
            ):
                verdict = "recurrent"
                break

    report = ConvergenceReport(
        levels=tuple(rows),
        extrapolated_limit=_aitken([r[2] for r in rows]),
        converged=(verdict == "transient"),
        tol=tol,
    )
    return verdict, report, trunc, w


def solve_monopole(
    source,
    x,
    tol: float = MONOPOLE_TOL,
    k_max: int = K_MAX,
) -> tuple[EnergyVector, ConvergenceReport]:
    """Minimal-energy monopole at ``x``: lap(w) = delta_x, via wired levels.

    Solves the grounded truncation at each level; the reported value is
    w(x) in the grounded gauge, which equals the energy of w.  The run
    converges when successive energies differ by at most ``tol``; on a
    recurrent network the energies grow without bound and the report comes
    back with ``converged`` False.
    """
    _, report, trunc, w = _exhaust(source, x, tol, k_max)
    return to_energy_vector(trunc, w), report


def transience_probe(
    source,
    tol: float = MONOPOLE_TOL,
    k_max: int = K_MAX,
    stride: int = 1,
) -> tuple[str, ConvergenceReport]:
    """Classify a generated network by its wired resistance to the ground.

    Per sampled level the monopole at the origin is solved and the wired
    resistance R_k = w(o) recorded.  Verdicts:

    - "transient" when successive R_k are Cauchy within ``tol``
      (bounded resistance to infinity, monopoles exist),
    - "recurrent" when R_k exceeds ``RECURRENCE_RATIO`` times R at the
      first level with non-shrinking increments,
    - "inconclusive" otherwise (raise ``k_max`` or loosen ``tol``).
    """
    verdict, report, _, _ = _exhaust(source, None, tol, k_max, stride, RECURRENCE_RATIO)
    return verdict, report


# -- harmonic functions and the Royden split -------------------------------


def _harmonic_extension(net: Network, b_idx: list, data: np.ndarray) -> np.ndarray:
    """Functions equal to the columns of ``data`` on the vertices ``b_idx``
    and harmonic at every other vertex: one Dirichlet solve per column."""
    keep, solve = _reduced_solver(net, b_idx)
    u = np.zeros((net.n, data.shape[1]))
    u[b_idx] = data
    lap = net.laplacian_matrix.tocsc()
    u[keep] = solve(-(lap[keep, :][:, b_idx] @ data))
    return u


def harmonic_space(net: Network, boundary) -> list[np.ndarray]:
    """Basis of harmonic-modulo-constants functions for a boundary set.

    Harmonically extends indicator data on ``boundary`` into the interior
    and drops one boundary vertex to kill the constants, so the result has
    dimension ``len(boundary) - 1``.  Every basis function vanishes at the
    origin.  An empty boundary returns an empty list.
    """
    b_idx = list(dict.fromkeys(net.index(b) for b in boundary))
    if len(b_idx) <= 1:
        return []
    # one extension per boundary vertex after the first
    u = _harmonic_extension(net, b_idx, np.eye(len(b_idx))[:, 1:])
    o = net.origin_index
    return [u[:, j] - u[o, j] for j in range(u.shape[1])]


def royden_project(net: Network, u, boundary=None) -> tuple[EnergyVector, EnergyVector]:
    """Split u = fin + harm, harm the energy projection onto harmonics.

    ``boundary`` defaults to the ground vertex when the network has one
    (so a plain finite network decomposes as (u, 0): no nonconstant
    harmonic functions exist there).  The harmonic component is the
    harmonic extension of u's own boundary values, one Dirichlet solve.
    It is the projection: fin = u - harm vanishes on the boundary, so by
    Green's identity E(fin, h) = sum_x fin(x) lap(h)(x) = 0 for every h
    harmonic off the boundary.
    """
    uvec = u if isinstance(u, EnergyVector) else to_energy_vector(net, u)
    if uvec.net is not net:
        raise NetworkError("energy vector from a different network")
    if boundary is None:
        boundary = [net.ground] if net.ground is not None else []
    b_idx = list(dict.fromkeys(net.index(b) for b in boundary))
    if len(b_idx) <= 1:
        return uvec, to_energy_vector(net, np.zeros(net.n))
    harm = to_energy_vector(net, _harmonic_extension(net, b_idx, uvec.values[b_idx, None])[:, 0])
    fin = to_energy_vector(net, uvec.values - harm.values)
    return fin, harm
