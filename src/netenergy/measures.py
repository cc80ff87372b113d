"""Discrete measure pairs: Radon-Nikodym operators and a blow-up witness.

Two finite measures on a common point set induce two inner products on the
span of the point indicators, with diagonal Grams.  The canonical operator
of the second inner product in the first is then multiplication by the
density mu2/mu1, which requires mu2 to live inside the support of mu1.

The witness family discretizes the unit interval at ternary resolution n
(uniform measure lambda_n, cell weight 3^-n) against the n-th Cantor
approximation (2^n surviving cells, weight 2^-n each).  The least constant
C_n bounding the Cantor pairing of the constant function against the
lambda_n norm is exactly (3/2)^(n/2), so log C_n grows linearly: the
finite-scale shadow of a pairing with no absolutely continuous limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .energy import GramMatrix
from .operators import InnerSpace, LinOp, OperatorError, krein_lambda

#: Largest witness level; 2^n support cells stay comfortably in memory.
MAX_WITNESS_LEVEL = 14


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic measure: points with strictly positive weights."""

    points: tuple
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        pts = tuple(self.points)
        if w.shape != (len(pts),):
            raise ValueError("weights must align with points")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        if w.size == 0:
            raise ValueError("measure needs at least one point")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def support(self) -> frozenset:
        return frozenset(self.points)

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def weight_at(self, point) -> float:
        try:
            return float(self.weights[self.points.index(point)])
        except ValueError:
            return 0.0

    def to_json(self) -> dict:
        return {"points": list(self.points), "weights": self.weights.tolist()}

    @classmethod
    def from_json(cls, doc) -> "DiscreteMeasure":
        try:
            pts = [tuple(p) if isinstance(p, list) else p for p in doc["points"]]
            return cls(points=tuple(pts), weights=np.asarray(doc["weights"], dtype=float))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed measure document: {exc}") from exc


def rn_lambda(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> LinOp:
    """Multiplication operator by the density of mu2 against mu1.

    Realized as the canonical operator of the L2(mu2) inner product inside
    L2(mu1) on the indicator basis of mu1's support; its matrix is the
    diagonal of pointwise ratios mu2/mu1.  Raises when mu2 charges a point
    outside mu1's support (no density exists).
    """
    stray = mu2.support - mu1.support
    if stray:
        example = sorted(stray, key=repr)[0]
        raise OperatorError(
            f"mu2 is not absolutely continuous with respect to mu1: "
            f"point {example!r} has mu1-measure zero"
        )
    g1 = np.diag(mu1.weights)
    g2 = np.diag([mu2.weight_at(p) for p in mu1.points])
    h1 = InnerSpace(gram=GramMatrix(labels=mu1.points, matrix=g1))
    lam = krein_lambda(h1, g2)
    ratios = np.array([mu2.weight_at(p) / mu1.weight_at(p) for p in mu1.points])
    if np.max(np.abs(lam.matrix - np.diag(ratios))) > 1e-12 * (1.0 + ratios.max()):
        raise OperatorError("density operator failed the diagonal identity")
    return lam


# -- the Cantor witness family ---------------------------------------------


def ternary_cells(n: int) -> list[str]:
    """All ternary cells of resolution n as digit strings (root is "")."""
    if n == 0:
        return [""]
    return ["".join(d) for d in itertools.product("012", repeat=n)]


def cantor_cells(n: int) -> list[str]:
    """The 2^n resolution-n cells meeting the Cantor set (digits 0 and 2)."""
    if n == 0:
        return [""]
    return ["".join(d) for d in itertools.product("02", repeat=n)]


def uniform_measure(n: int) -> DiscreteMeasure:
    """lambda_n: uniform weight 3^-n on all 3^n resolution-n cells."""
    cells = ternary_cells(n)
    return DiscreteMeasure(points=tuple(cells), weights=np.full(len(cells), 3.0 ** (-n)))


def cantor_measure(n: int) -> DiscreteMeasure:
    """mu_n: uniform weight 2^-n on the 2^n Cantor cells of resolution n."""
    cells = cantor_cells(n)
    return DiscreteMeasure(points=tuple(cells), weights=np.full(len(cells), 2.0 ** (-n)))


@dataclass(frozen=True)
class CantorWitnessReport:
    """Per-level witness constants against the closed-form prediction."""

    rows: tuple  # (level, measured, predicted)

    def __post_init__(self):
        object.__setattr__(
            self,
            "rows",
            tuple((int(n), float(m), float(p)) for n, m, p in self.rows),
        )

    def log_slope(self, min_level: int = 2) -> float:
        """Least-squares slope of log C_n against n from ``min_level`` up."""
        pts = [(n, m) for n, m, _ in self.rows if n >= min_level and m > 0.0]
        if len(pts) < 2:
            raise ValueError("need at least two levels to fit a slope")
        ns = np.array([p[0] for p in pts], dtype=float)
        logs = np.log([p[1] for p in pts])
        slope, _ = np.polyfit(ns, logs, 1)
        return float(slope)


def _witness_constant(n: int) -> float:
    """Representer norm of the Cantor pairing of 1 against lambda_n.

    The pairing vector b has b_cell = mu_n(cell), zero off the 2^n Cantor
    cells, and the Gram of lambda_n is diagonal, so the representer solve
    reduces to elementwise division on the support; the dense version
    would only append zero terms.
    """
    if n == 0:
        return 1.0
    b = np.full(2 ** n, 2.0 ** (-n))
    representer = b / 3.0 ** (-n)
    return float(np.sqrt(b @ representer))


def cantor_witness(n: int) -> tuple[float, CantorWitnessReport]:
    """Witness constant C_n = (3/2)^(n/2) with its level-by-level trend.

    Returns the constant at level ``n`` and a report of (level, measured,
    predicted) rows for levels 0..n showing the geometric growth; level 0
    is the degenerate single-cell case with C_0 = 1.
    """
    if not 0 <= n <= MAX_WITNESS_LEVEL:
        raise ValueError(
            f"witness level must be within 0..{MAX_WITNESS_LEVEL}, got {n}"
        )
    rows = []
    for level in range(n + 1):
        measured = _witness_constant(level)
        predicted = 1.5 ** (level / 2.0)
        rows.append((level, measured, predicted))
    return rows[-1][1], CantorWitnessReport(rows=tuple(rows))
