"""Dirichlet energy form, the energy Hilbert space, and Gram matrices.

The energy of two vertex functions on a network is

    E(u, v) = sum over undirected edges (x, y) of c_xy (u(x)-u(y)) (v(x)-v(y)),

one term per edge (summing over ordered pairs would double it and carry a
compensating 1/2).  The form kills constants and nothing else on a
connected network, so the energy Hilbert space is functions-of-finite-
energy modulo constants.  A class is stored through its canonical
representative, the one vanishing at the origin; re-gauging changes no
energy inner product.

The counting-measure l2 inner product sum_x u(x) v(x) lives on the same
vertex set but is not shift-invariant, so l2 computations use the
representatives exactly as given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network, NetworkError


def energy_form(net: Network, u, v=None) -> float:
    """Energy inner product E(u, v); E(u, u) when ``v`` is omitted."""
    heads, tails, conds = net.edge_arrays
    ua = net.as_array(u)
    du = ua[heads] - ua[tails]
    if v is None:
        return float(np.sum(conds * du * du))
    va = net.as_array(v)
    return float(np.sum(conds * du * (va[heads] - va[tails])))


def energy_pairings(net: Network, rows, cols) -> np.ndarray:
    """Matrix of energy inner products E(rows[i], cols[j])."""
    heads, tails, conds = net.edge_arrays
    r = np.vstack([net.as_array(u) for u in rows])
    c = np.vstack([net.as_array(v) for v in cols])
    dr = r[:, heads] - r[:, tails]
    dc = c[:, heads] - c[:, tails]
    return (dr * conds) @ dc.T


@dataclass(frozen=True)
class EnergyVector:
    """An energy-space element through its canonical representative.

    ``values`` vanishes at the origin; ``energy`` caches E(values, values).
    Build instances with :func:`to_energy_vector`.
    """

    net: Network
    values: np.ndarray
    energy: float

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.net.n,):
            raise NetworkError(
                f"representative has shape {vals.shape}, expected ({self.net.n},)"
            )
        if vals[self.net.origin_index] != 0.0:
            raise NetworkError("canonical representative must vanish at the origin")
        if not (np.isfinite(self.energy) and self.energy >= 0.0):
            raise NetworkError(f"energy must be finite and nonnegative, got {self.energy}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def inner(self, other: "EnergyVector") -> float:
        if other.net is not self.net:
            raise NetworkError("energy vectors live on different networks")
        return energy_form(self.net, self.values, other.values)

    def norm(self) -> float:
        return float(np.sqrt(max(self.energy, 0.0)))

    def __call__(self, x) -> float:
        return float(self.values[self.net.index(x)])

    def as_dict(self) -> dict:
        return self.net.as_dict(self.values)


def to_energy_vector(net: Network, u) -> EnergyVector:
    """Project a vertex function to its energy class (re-gauge at origin)."""
    arr = net.as_array(u)
    rep = arr - arr[net.origin_index]
    return EnergyVector(net=net, values=rep, energy=energy_form(net, rep))


def _symmetric(m: np.ndarray, tol: float, error: type[Exception], name: str) -> np.ndarray:
    """``m`` itself when it is exactly symmetric, else 0.5 (m + m').

    Raises ``error`` when ``m`` has a non-finite entry or an asymmetry above
    ``tol`` (1 + max |m|).
    """
    if not np.isfinite(m).all():
        raise error(f"{name} has a non-finite entry")
    if np.array_equal(m, m.T):
        return m
    asym = float(np.abs(m - m.T).max())
    if not asym <= tol * (1.0 + float(np.abs(m).max())):
        raise error(f"{name} is not symmetric: asymmetry residual {asym:.3e}")
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class GramMatrix:
    """Labelled symmetric matrix of pairwise inner products."""

    labels: tuple
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"gram matrix must be square, got shape {m.shape}")
        if len(self.labels) != m.shape[0]:
            raise ValueError("label count does not match matrix size")
        m = _symmetric(m, 1e-12, ValueError, "gram matrix")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def gram(space_kind: str, net: Network, vectors, labels=None) -> GramMatrix:
    """Gram matrix of vertex functions under the energy or l2 inner product.

    ``space_kind`` is "energy" or "l2".  Energy grams are independent of
    the representatives (the form is shift-invariant); l2 grams use the
    representatives as given.
    """
    if space_kind not in ("energy", "l2"):
        raise ValueError(f"unknown space kind {space_kind!r}, expected 'energy' or 'l2'")
    arrs = []
    for u in vectors:
        if isinstance(u, EnergyVector):
            if u.net is not net:
                raise NetworkError("energy vector from a different network")
            arrs.append(u.values)
        else:
            arrs.append(net.as_array(u))
    if labels is None:
        labels = tuple(range(len(arrs)))
    v = np.vstack(arrs) if arrs else np.zeros((0, net.n))
    if space_kind == "energy":
        # E(u, w) = <B u, B w> with B the sqrt(c)-weighted edge differences;
        # v @ v.T of one array runs as a symmetric rank-k update
        heads, tails, conds = net.edge_arrays
        v = np.take(v, heads, axis=1) - np.take(v, tails, axis=1)
        v *= np.sqrt(conds)
    return GramMatrix(labels=tuple(labels), matrix=v @ v.T)
