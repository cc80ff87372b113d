"""Graph builders, unbounded generator rules, and wired truncation.

Finite builders (:func:`path`, :func:`cycle`, :func:`binary_tree`,
:func:`lattice`, :func:`geometric_line`, :func:`random_network`) return
plain :class:`~netenergy.network.Network` objects.

Unbounded graphs are never materialized.  They are described by a
:class:`GraphGenerator` rule: a nested family of finite level sets
``G_1 subset G_2 subset ...`` covering the vertex set.  ``level(k)``
returns G_k as arrays: its labels, each induced edge once as a pair of
level positions with its conductance, and each vertex's summed
conductance to the exterior.  Edges come ordered by their lower
position.  :func:`truncate` realizes the wired truncation at level k:
the induced graph on ``G_k`` plus one grounded vertex that takes each
vertex's exterior conductance.  Solvers pin the ground to potential
zero, which is the wired (shorted exterior) boundary condition.

:func:`truncate` and the level builders :func:`binary_tree`,
:func:`lattice` and :func:`geometric_line` are one pass: the level's
arrays go to :meth:`~netenergy.network.Network.from_arrays`, with one
ground column appended for a wired truncation whose exterior is not
empty.  An exterior that is not one finite number >= 0 per vertex is
refused here; repeated edges, self loops, bad positions and bad
conductances are refused by ``from_arrays``.
"""

from __future__ import annotations

import abc
import numbers
from dataclasses import dataclass

import numpy as np

from .network import GROUND, Network, NetworkError, _check_nonnegative


class GraphGenerator(abc.ABC):
    """Rule describing a graph by its nested level sets."""

    @property
    @abc.abstractmethod
    def origin(self):
        """Label of the origin vertex; must lie in every level set."""

    @abc.abstractmethod
    def level(self, k: int) -> tuple:
        """The level-k set G_k as ``(labels, u, v, c, exterior)``: its vertex
        labels; each edge induced on G_k once, joining level positions
        ``u[i]`` and ``v[i]`` (integer arrays) with conductance ``c[i]``; and
        ``exterior[j]``, the summed conductance from vertex j to vertices
        outside G_k (0 for an interior vertex)."""


def _level_network(generator: GraphGenerator, k: int, wired: bool) -> Network:
    """The network induced on G_k; when ``wired`` and some edge leaves G_k,
    one ground vertex is appended that takes each vertex's exterior
    conductance, in ascending level position."""
    labels, u, v, c, exterior = generator.level(k)
    labels = list(labels)
    n = len(labels)
    try:
        origin = labels.index(generator.origin)
    except ValueError:
        raise NetworkError("origin is not contained in the level set") from None
    ext = np.asarray(exterior)
    if ext.shape != (n,) or ext.dtype.kind not in "iuf":
        raise NetworkError(f"exterior must hold {n} numbers, one per vertex, got {ext.shape}")
    bad = np.flatnonzero(~(np.isfinite(ext) & (ext >= 0)))
    if bad.size:
        j = bad[0]
        raise NetworkError(
            f"exterior conductance at {labels[j]!r} is {ext[j]}, need a finite number >= 0"
        )
    boundary, ground = np.flatnonzero(ext > 0), None
    if wired and boundary.size:
        if (np.asarray(u) == n).any() or (np.asarray(v) == n).any():
            raise NetworkError(f"edge arrays must list integer positions 0..{n - 1}, one per edge")
        labels.append(GROUND)
        u, v = np.append(u, boundary), np.append(v, np.full(boundary.size, n))
        c, ground = np.append(c, ext[boundary]), n
    return Network.from_arrays(labels, u, v, c, origin, ground)


def truncate(generator: GraphGenerator, k: int) -> Network:
    """Wired truncation of a generated graph at level ``k``.

    Edges from ``G_k`` to the exterior are replaced by edges to one new
    grounded vertex, conductances of parallel rewired edges summed.  If no
    edge leaves ``G_k`` (the generator is exhausted) the plain induced
    network is returned with no ground vertex.
    """
    _check_count("truncation level", k, 1)
    return _level_network(generator, k, wired=True)


# -- concrete generator rules ----------------------------------------------


def _check_positive(name: str, value) -> None:
    """Raise unless ``value`` is a real number in (0, largest float]."""
    if not (isinstance(value, numbers.Real) and 0 < value <= np.finfo(float).max):
        raise NetworkError(f"{name} must be a positive finite number, got {value!r}")


def _check_count(name: str, value, least: int) -> None:
    """Raise unless ``value`` is an integer (numpy's included) >= ``least``."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise NetworkError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class BinaryTreeGen(GraphGenerator):
    """Rooted infinite binary tree with constant edge conductance.

    Labels are strings over {0, 1} prefixed by "r"; the root "r" is the
    origin and vertex depth is ``len(label) - 1``.  Level k holds all
    vertices of depth at most k, in heap order: the children of position
    i are 2i + 1 (label + "0") and 2i + 2 (label + "1").
    """

    conductance: float = 1.0

    def __post_init__(self):
        _check_positive("conductance", self.conductance)

    @property
    def origin(self) -> str:
        return "r"

    def level(self, k: int) -> tuple:
        n, inner = 2 ** (k + 1) - 1, 2**k - 1
        c = float(self.conductance)
        exterior = np.zeros(n)
        exterior[inner:] = c + c  # both children of a leaf lie outside
        labels = ["r" + bin(i)[3:] for i in range(1, n + 1)]
        return labels, np.repeat(np.arange(inner), 2), np.arange(1, n), np.full(n - 1, c), exterior


@dataclass(frozen=True)
class IntegerLineGen(GraphGenerator):
    """Two-sided integer line with constant conductance; levels are balls."""

    conductance: float = 1.0

    def __post_init__(self):
        _check_positive("conductance", self.conductance)

    @property
    def origin(self) -> int:
        return 0

    def level(self, k: int) -> tuple:
        n, c = 2 * k + 1, float(self.conductance)
        exterior = np.zeros(n)
        exterior[[0, -1]] = c
        labels = list(range(-k, k + 1))
        return labels, np.arange(n - 1), np.arange(1, n), np.full(n - 1, c), exterior


@dataclass(frozen=True)
class GeometricLineGen(GraphGenerator):
    """Half line 0, 1, 2, ... with conductance c_{n,n+1} = ratio**n.

    Level k is the first k vertices {0, ..., k-1}, so the wired resistance
    of the level-k truncation is the k-term partial sum of the series
    sum_n ratio**-n (exactly k when ratio is 1).
    """

    ratio: float = 2.0

    def __post_init__(self):
        _check_positive("ratio", self.ratio)

    @property
    def origin(self) -> int:
        return 0

    def level(self, k: int) -> tuple:
        powers: list = []
        try:
            for i in range(k):
                powers.append(float(self.ratio) ** i)
        except OverflowError:
            raise NetworkError(f"conductance {self.ratio}**{i} overflows a float") from None
        exterior = np.zeros(k)
        exterior[-1] = powers[-1]
        return list(range(k)), np.arange(k - 1), np.arange(1, k), np.array(powers[:-1]), exterior


@dataclass(frozen=True)
class IntegerLatticeGen(GraphGenerator):
    """d-dimensional integer lattice, constant conductance, graph-ball levels.

    Level k is the l1 ball of radius k in lexicographic order; the edges at
    a vertex x go to x + e_0, ..., x + e_{d-1} in that order.
    """

    d: int = 2
    conductance: float = 1.0

    def __post_init__(self):
        _check_count("lattice dimension", self.d, 1)
        _check_positive("conductance", self.conductance)

    @property
    def origin(self) -> tuple:
        return (0,) * self.d

    def level(self, k: int) -> tuple:
        d, c = self.d, float(self.conductance)
        # the ball one coordinate at a time: a point with room r left takes
        # each next coordinate x in -r..r, leaving room r - |x|
        pts, room = np.zeros((1, 0), np.int64), np.array([k])
        for _ in range(d):
            width = 2 * room + 1
            rows = np.repeat(np.arange(room.size), width)
            x = np.arange(rows.size) - (np.cumsum(width) - width)[rows] - room[rows]
            pts, room = np.column_stack((pts[rows], x)), room[rows] - np.abs(x)
        n = len(pts)
        # packed key: base-(2k+1) digits of the shifted point, increasing in
        # lexicographic order; Python integers where int64 would overflow
        dtype = np.int64 if (2 * k + 1) ** d < 2**62 else object
        place = (2 * k + 1) ** np.arange(d - 1, -1, -1).astype(dtype)
        key = (pts + k).astype(dtype) @ place
        ahead = np.full((n, d), -1)
        for a in range(d):
            inside = (room > 0) | (pts[:, a] < 0)
            ahead[inside, a] = np.searchsorted(key, key[inside] + place[a])
        # from the rim, a step leaves the ball unless it moves a coordinate
        # toward zero: one step out per nonzero coordinate, two per zero one
        at = np.repeat(np.arange(n), np.where(room == 0, d + (pts == 0).sum(axis=1), 0))
        exterior = np.bincount(at, weights=np.full(at.size, c), minlength=n)
        u, a = np.nonzero(ahead >= 0)
        return list(zip(*pts.T.tolist())), u, ahead[u, a], np.full(u.size, c), exterior


# -- finite builders -------------------------------------------------------


def path(n: int, conductance: float = 1.0) -> Network:
    """Path on vertices 0..n-1 with constant conductance, origin 0."""
    _check_count("path vertex count", n, 2)
    edges = [(i, i + 1, conductance) for i in range(n - 1)]
    return Network(edges, origin=0)


def cycle(n: int, conductance: float = 1.0) -> Network:
    """Cycle on vertices 0..n-1 with constant conductance, origin 0."""
    _check_count("cycle vertex count", n, 3)
    edges = [(i, (i + 1) % n, conductance) for i in range(n)]
    return Network(edges, origin=0)


def binary_tree(depth: int, conductance: float = 1.0) -> Network:
    """Finite rooted binary tree of the given depth, origin at the root."""
    _check_count("binary tree depth", depth, 1)
    return _level_network(BinaryTreeGen(conductance=conductance), depth, wired=False)


def lattice(d: int, radius: int, conductance: float = 1.0) -> Network:
    """Graph ball of the given radius in the d-dimensional integer lattice."""
    _check_count("lattice ball radius", radius, 1)
    return _level_network(IntegerLatticeGen(d=d, conductance=conductance), radius, wired=False)


def geometric_line(ratio: float, n: int) -> Network:
    """First n vertices of the half line with c_{k,k+1} = ratio**k."""
    _check_count("geometric line vertex count", n, 2)
    return _level_network(GeometricLineGen(ratio=ratio), n, wired=False)


def random_network(
    n: int,
    seed: int | np.random.Generator = 0,
    extra_edges: float = 0.5,
    c_max: float = 10.0,
) -> Network:
    """Random connected network: a random tree plus extra random edges.

    Conductances are drawn uniformly from (0, c_max].  Used by the
    randomized identity checks; deterministic for a fixed seed.
    """
    _check_count("random network vertex count", n, 2)
    _check_nonnegative("extra_edges", extra_edges)
    _check_positive("c_max", c_max)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def draw_c() -> float:
        # uniform on (0, c_max]: 1 - U is in (0, 1] when U is in [0, 1)
        return float(c_max * (1.0 - rng.random()))

    edges = []
    used = set()
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        edges.append((v, parent, draw_c()))
        used.add((min(v, parent), max(v, parent)))
    n_extra = int(round(extra_edges * n))
    for _ in range(n_extra):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in used:
            continue
        used.add(key)
        edges.append((u, v, draw_c()))
    return Network(edges, origin=0)
