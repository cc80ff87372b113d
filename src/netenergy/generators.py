"""Graph builders, unbounded generator rules, and wired truncation.

Finite builders (:func:`path`, :func:`cycle`, :func:`binary_tree`,
:func:`lattice`, :func:`geometric_line`, :func:`random_network`) return
plain :class:`~netenergy.network.Network` objects.

Unbounded graphs are never materialized.  They are described by a
:class:`GraphGenerator` rule: a nested family of finite level sets
``G_1 subset G_2 subset ...`` covering the vertex set, plus a local
neighbor rule.  :func:`truncate` realizes the wired truncation at level k:
the induced graph on ``G_k`` with every edge leaving ``G_k`` rewired to a
single grounded vertex, parallel conductances summed.  Solvers pin the
ground to potential zero, which is the wired (shorted exterior) boundary
condition.

:func:`truncate` and the level builders :func:`binary_tree`,
:func:`lattice` and :func:`geometric_line` are one pass: each edge of
``G_k`` is kept as a pair of level positions and the arrays go to
:meth:`~netenergy.network.Network.from_arrays`, with one ground column
appended for a wired truncation whose exterior is not empty.
"""

from __future__ import annotations

import abc
import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .network import GROUND, Network, NetworkError


class GraphGenerator(abc.ABC):
    """Rule describing a graph one neighborhood at a time."""

    @property
    @abc.abstractmethod
    def origin(self):
        """Label of the origin vertex; must lie in every level set."""

    @abc.abstractmethod
    def level(self, k: int) -> list:
        """Vertex labels of the level-k set G_k."""

    @abc.abstractmethod
    def neighbors(self, v) -> list[tuple[object, float]]:
        """All ``(neighbor, conductance)`` pairs at ``v``.  The rule must be
        symmetric: ``w`` lists ``v`` with the conductance ``v`` lists ``w``
        with (to relative 1e-12), and no neighbor is listed twice;
        :func:`truncate` raises :class:`~netenergy.network.NetworkError` if not."""


def _level_network(generator: GraphGenerator, k: int, wired: bool) -> Network:
    """The network induced on G_k; when ``wired`` and some edge leaves G_k,
    one ground vertex is appended that takes each vertex's summed
    conductance to the exterior.  Each induced edge is kept as listed at its
    end that comes first in G_k."""
    level = list(generator.level(k))
    n = len(level)
    pos = dict(zip(level, range(n)))
    if generator.origin not in pos:
        raise NetworkError("origin is not contained in the level set")

    exterior: dict = {}
    lower, upper = [], []  # (i * n + j, c) for an edge i < j, as listed at i and at j
    for i, x in enumerate(level):
        for y, c in generator.neighbors(x):
            j = pos.get(y)
            if j is None:
                exterior[i] = exterior.get(i, 0.0) + c
            elif i < j:
                lower.append((i * n + j, c))
            elif j < i:
                upper.append((j * n + i, c))
            else:
                raise NetworkError(f"generator produced a self loop at {x!r}")
    lo, up = (np.array(s, dtype=float).reshape(-1, 2) for s in (lower, upper))
    _check_listing(level, lo, up)
    u, v = np.divmod(lo[:, 0].astype(np.int64), n)
    c, ground = lo[:, 1], None
    if wired and exterior:
        level.append(GROUND)
        u, v = np.append(u, list(exterior)), np.append(v, [n] * len(exterior))
        c, ground = np.append(c, list(exterior.values())), n
    return Network.from_arrays(level, u, v, c, pos[generator.origin], ground)


def _check_listing(level: list, lower: np.ndarray, upper: np.ndarray) -> None:
    """Raise unless every edge induced on ``level`` is listed once at each
    end, with conductances equal to relative 1e-12 (see :func:`_level_network`)."""
    lo, up = (a[np.argsort(a[:, 0])] for a in (lower, upper))
    if lo.shape == up.shape and (lo[:, 0] == up[:, 0]).all() and (np.diff(lo[:, 0]) > 0).all():
        bad = np.flatnonzero(np.abs(lo[:, 1] - up[:, 1]) > 1e-12 * np.abs(lo[:, 1]))
        if not bad.size:
            return
        key = lo[bad[0], 0]
    else:
        n_lo, n_up = Counter(lo[:, 0].tolist()), Counter(up[:, 0].tolist())
        key = min(key for key in n_lo | n_up if (n_lo[key], n_up[key]) != (1, 1))
    x, y = (level[i] for i in divmod(int(key), len(level)))
    at_x, at_y = (a[a[:, 0] == key, 1].tolist() for a in (lower, upper))
    what = "duplicate edge" if max(len(at_x), len(at_y)) > 1 else "asymmetric neighbor rule at"
    raise NetworkError(f"{what} ({x!r}, {y!r}): conductances {at_x} at {x!r}, {at_y} at {y!r}")


def truncate(generator: GraphGenerator, k: int) -> Network:
    """Wired truncation of a generated graph at level ``k``.

    Edges from ``G_k`` to the exterior are replaced by edges to one new
    grounded vertex, conductances of parallel rewired edges summed.  If no
    edge leaves ``G_k`` (the generator is exhausted) the plain induced
    network is returned with no ground vertex.
    """
    if k < 1:
        raise NetworkError(f"truncation level must be >= 1, got {k}")
    return _level_network(generator, k, wired=True)


# -- concrete generator rules ----------------------------------------------


def _check_positive(name: str, value) -> None:
    """Raise unless ``value`` is a real number in (0, largest float]."""
    if not (isinstance(value, numbers.Real) and 0 < value <= np.finfo(float).max):
        raise NetworkError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class BinaryTreeGen(GraphGenerator):
    """Rooted infinite binary tree with constant edge conductance.

    Labels are strings over {0, 1} prefixed by "r"; the root "r" is the
    origin and vertex depth is ``len(label) - 1``.  Level k holds all
    vertices of depth at most k.
    """

    conductance: float = 1.0

    def __post_init__(self):
        _check_positive("conductance", self.conductance)

    @property
    def origin(self) -> str:
        return "r"

    def level(self, k: int) -> list[str]:
        out = ["r"]
        frontier = ["r"]
        for _ in range(k):
            frontier = [s + b for s in frontier for b in ("0", "1")]
            out.extend(frontier)
        return out

    def neighbors(self, v: str) -> list[tuple[str, float]]:
        c = self.conductance
        out = [(v + "0", c), (v + "1", c)]
        if len(v) > 1:
            out.append((v[:-1], c))
        return out


@dataclass(frozen=True)
class IntegerLineGen(GraphGenerator):
    """Two-sided integer line with constant conductance; levels are balls."""

    conductance: float = 1.0

    def __post_init__(self):
        _check_positive("conductance", self.conductance)

    @property
    def origin(self) -> int:
        return 0

    def level(self, k: int) -> list[int]:
        return list(range(-k, k + 1))

    def neighbors(self, v: int) -> list[tuple[int, float]]:
        return [(v - 1, self.conductance), (v + 1, self.conductance)]


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

    def level(self, k: int) -> list[int]:
        return list(range(k))

    def neighbors(self, v: int) -> list[tuple[int, float]]:
        try:
            return [(w, float(self.ratio) ** min(v, w)) for w in (v + 1, v - 1) if w >= 0]
        except OverflowError:
            raise NetworkError(f"conductance {self.ratio}**{v} overflows a float") from None


@dataclass(frozen=True)
class IntegerLatticeGen(GraphGenerator):
    """d-dimensional integer lattice, unit conductances, graph-ball levels."""

    d: int = 2
    conductance: float = 1.0

    def __post_init__(self):
        if not isinstance(self.d, (int, np.integer)) or self.d < 1:
            raise NetworkError(f"lattice dimension must be an integer >= 1, got {self.d!r}")
        _check_positive("conductance", self.conductance)

    @property
    def origin(self) -> tuple:
        return (0,) * self.d

    def level(self, k: int) -> list[tuple]:
        # the l1 ball in lexicographic order, one coordinate at a time
        out = [()]
        for _ in range(self.d):
            out = [p + (x,) for p in out for r in [k - sum(map(abs, p))] for x in range(-r, r + 1)]
        return out

    def neighbors(self, v: tuple) -> list[tuple[tuple, float]]:
        c = self.conductance
        return [(v[:a] + (v[a] + step,) + v[a + 1 :], c) for a in range(self.d) for step in (-1, 1)]


# -- finite builders -------------------------------------------------------


def path(n: int, conductance: float = 1.0) -> Network:
    """Path on vertices 0..n-1 with constant conductance, origin 0."""
    if n < 1:
        raise NetworkError(f"path needs n >= 1 vertices, got {n}")
    if n == 1:
        raise NetworkError("path with a single vertex has no edges")
    edges = [(i, i + 1, conductance) for i in range(n - 1)]
    return Network(edges, origin=0)


def cycle(n: int, conductance: float = 1.0) -> Network:
    """Cycle on vertices 0..n-1 with constant conductance, origin 0."""
    if n < 3:
        raise NetworkError(f"cycle needs n >= 3 vertices, got {n}")
    edges = [(i, (i + 1) % n, conductance) for i in range(n)]
    return Network(edges, origin=0)


def binary_tree(depth: int, conductance: float = 1.0) -> Network:
    """Finite rooted binary tree of the given depth, origin at the root."""
    if depth < 1:
        raise NetworkError(f"binary tree needs depth >= 1, got {depth}")
    return _level_network(BinaryTreeGen(conductance=conductance), depth, wired=False)


def lattice(d: int, radius: int, conductance: float = 1.0) -> Network:
    """Graph ball of the given radius in the d-dimensional integer lattice."""
    if radius < 1:
        raise NetworkError(f"lattice ball needs radius >= 1, got {radius}")
    return _level_network(IntegerLatticeGen(d=d, conductance=conductance), radius, wired=False)


def geometric_line(ratio: float, n: int) -> Network:
    """First n vertices of the half line with c_{k,k+1} = ratio**k."""
    if n < 2:
        raise NetworkError(f"geometric line needs n >= 2 vertices, got {n}")
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
    if n < 2:
        raise NetworkError(f"random network needs n >= 2 vertices, got {n}")
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
