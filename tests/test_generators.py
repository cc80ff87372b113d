import itertools
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from netenergy import (
    GROUND,
    BinaryTreeGen,
    GeometricLineGen,
    IntegerLatticeGen,
    IntegerLineGen,
    Network,
    NetworkError,
    binary_tree,
    cycle,
    geometric_line,
    lattice,
    path,
    random_network,
    truncate,
)


def _edge(net, x, y) -> float:
    """Conductance of the edge x -- y (0 if absent)."""
    return net.weight_matrix[net.index(x), net.index(y)]


def test_tree_truncation_wires_boundary():
    net = truncate(BinaryTreeGen(), 1)
    assert set(net.labels) == {"r", "r0", "r1", GROUND}
    assert net.ground == GROUND
    assert net.origin == "r"
    # the two edges leaving each depth-1 vertex collapse onto the ground
    assert _edge(net, "r0", GROUND) == 2.0
    assert _edge(net, "r1", GROUND) == 2.0
    assert _edge(net, "r", "r0") == 1.0
    assert truncate(BinaryTreeGen(), 2).n == 7 + 1  # depth-2 tree plus the ground


def test_line_truncation_wires_both_ends():
    net = truncate(IntegerLineGen(), 1)
    assert set(net.labels) == {-1, 0, 1, GROUND}
    assert _edge(net, 1, GROUND) == 1.0
    assert _edge(net, -1, GROUND) == 1.0


def test_geometric_truncation_scales_boundary_edge():
    net = truncate(GeometricLineGen(ratio=2.0), 2)
    assert set(net.labels) == {0, 1, GROUND}
    # the cut edge (1, 2) carries conductance ratio^1
    assert _edge(net, 1, GROUND) == 2.0


def test_generator_levels_grow():
    tree = BinaryTreeGen()
    assert tree.level(1)[0] == ["r", "r0", "r1"]
    assert len(tree.level(5)[0]) == 2**6 - 1
    assert IntegerLineGen().level(2)[0] == [-2, -1, 0, 1, 2]
    assert GeometricLineGen(ratio=2.0).level(3)[0] == [0, 1, 2]
    lat = IntegerLatticeGen(d=2)
    assert lat.origin == (0, 0)
    assert len(lat.level(1)[0]) == 5


def test_generator_level_arrays():
    labels, u, v, c, exterior = BinaryTreeGen().level(1)
    assert (u.tolist(), v.tolist(), c.tolist()) == ([0, 0], [1, 2], [1.0, 1.0])
    assert exterior.tolist() == [0.0, 2.0, 2.0]
    labels, u, v, c, exterior = GeometricLineGen(ratio=3.0).level(3)
    assert (u.tolist(), v.tolist(), c.tolist()) == ([0, 1], [1, 2], [1.0, 3.0])
    assert exterior.tolist() == [0.0, 0.0, 9.0]


def test_geometric_ratio_validated():
    with pytest.raises(NetworkError):
        GeometricLineGen(ratio=0.0)


def test_truncate_rejects_bad_level():
    with pytest.raises(NetworkError):
        truncate(BinaryTreeGen(), 0)


def _edge_set(net, skip=None):
    heads, tails, conds = net.edge_arrays
    labels = net.labels
    return {
        (frozenset((labels[i], labels[j])), float(c))
        for i, j, c in zip(heads, tails, conds)
        if skip not in (labels[i], labels[j])
    }


@pytest.mark.parametrize(
    "net, gen, k",
    [
        (binary_tree(4), BinaryTreeGen(), 4),
        (lattice(2, 3), IntegerLatticeGen(d=2), 3),
        (geometric_line(2.0, 6), GeometricLineGen(ratio=2.0), 6),
    ],
    ids=["binary_tree", "lattice", "geometric_line"],
)
def test_builders_are_truncations_without_ground(net, gen, k):
    wired = truncate(gen, k)
    assert net.ground is None and wired.ground == GROUND
    assert net.labels + (GROUND,) == wired.labels
    assert net.origin == wired.origin
    assert _edge_set(net) == _edge_set(wired, skip=GROUND)


def _reference_rule(gen, k):
    """The level set G_k of ``gen`` and its neighbor rule, one vertex at a
    time in plain Python: the definitions the array rules must reproduce."""
    if isinstance(gen, BinaryTreeGen):
        level, frontier = ["r"], ["r"]
        for _ in range(k):
            frontier = [s + b for s in frontier for b in ("0", "1")]
            level.extend(frontier)
        c = gen.conductance

        def neighbors(v):
            return [(v + "0", c), (v + "1", c)] + ([(v[:-1], c)] if len(v) > 1 else [])

        return level, neighbors
    if isinstance(gen, IntegerLineGen):
        c = gen.conductance
        return list(range(-k, k + 1)), lambda v: [(v - 1, c), (v + 1, c)]
    if isinstance(gen, GeometricLineGen):
        r = float(gen.ratio)
        return list(range(k)), lambda v: [(w, r ** min(v, w)) for w in (v + 1, v - 1) if w >= 0]
    level = [()]
    for _ in range(gen.d):
        level = [p + (x,) for p in level for r in [k - sum(map(abs, p))] for x in range(-r, r + 1)]
    c = gen.conductance
    return level, lambda v: [
        (v[:a] + (v[a] + step,) + v[a + 1 :], c) for a in range(gen.d) for step in (-1, 1)
    ]


def _truncate_oracle(gen, k):
    """Plain-Python wired truncation: (labels, in-level edges as
    (head, tail, c) positions, each listed at its lower end in the rule's
    order, ground conductances summed in the rule's order)."""
    level, neighbors = _reference_rule(gen, k)
    pos = {v: i for i, v in enumerate(level)}
    edges, ground = [], {}
    for i, x in enumerate(level):
        for y, c in neighbors(x):
            if y not in pos:
                ground[x] = ground.get(x, 0.0) + c
            elif i < pos[y]:
                edges.append((i, pos[y], float(c)))
    return level, edges, ground


def _assert_matches_reference(gen, k):
    level, edges, ground = _truncate_oracle(gen, k)
    net = truncate(gen, k)
    assert net.labels == tuple(level) + (GROUND,)
    heads, tails, conds = net.edge_arrays
    g = net.ground_index
    inner = [(int(i), int(j), float(c)) for i, j, c in zip(heads, tails, conds) if j != g]
    assert inner == edges
    wired = {net.labels[i]: float(c) for i, j, c in zip(heads, tails, conds) if j == g}
    assert list(wired.items()) == list(ground.items())


@pytest.mark.parametrize(
    "gen",
    [
        BinaryTreeGen(),
        IntegerLineGen(conductance=0.5),
        GeometricLineGen(ratio=3.0),
        GeometricLineGen(ratio=0.5),
        IntegerLatticeGen(d=1),
        IntegerLatticeGen(d=2),
        IntegerLatticeGen(d=3),
        IntegerLatticeGen(d=4),
        IntegerLatticeGen(d=3, conductance=0.7),
    ],
    ids=[
        "tree", "line", "geometric", "geometric05",
        "lattice1", "lattice2", "lattice3", "lattice4", "lattice3c07",
    ],
)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_truncate_matches_reference(gen, k):
    _assert_matches_reference(gen, k)


@pytest.mark.parametrize("k", [1, 2])
def test_lattice_keys_beyond_int64_match_reference(k):
    # (2k + 1)**40 does not fit an int64, so the packed keys are Python integers
    _assert_matches_reference(IntegerLatticeGen(d=40), k)


@pytest.mark.parametrize(
    "gen, law",
    [
        (IntegerLatticeGen(d=2), lambda k: 8 * k + 4),
        (IntegerLatticeGen(d=3), lambda k: 12 * k**2 + 12 * k + 6),
        (IntegerLineGen(conductance=0.5), lambda k: 2 * 0.5),
        (GeometricLineGen(ratio=0.5), lambda k: 0.5 ** (k - 1)),
        (BinaryTreeGen(conductance=0.5), lambda k: 2 ** (k + 1) * 0.5),
    ],
    ids=["Z2", "Z3", "line", "geometric05", "tree"],
)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_ground_conductance_follows_the_boundary_law(gen, law, k):
    net = truncate(gen, k)
    assert net.conductances[net.ground_index] == pytest.approx(law(k), rel=1e-14)


def test_truncations_and_level_builders_build_from_arrays(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built through the label constructor")

    monkeypatch.setattr(Network, "__init__", refuse)
    assert truncate(IntegerLatticeGen(d=2), 3).ground == GROUND
    assert binary_tree(3).n == 15
    assert lattice(3, 2).n == 25
    assert geometric_line(2.0, 4).n == 4


class _GroundNamedLine(IntegerLineGen):
    """The integer line with vertex 1 labelled like the ground."""

    def level(self, k):
        labels, *arrays = super().level(k)
        return [GROUND if v == 1 else v for v in labels], *arrays


def test_level_label_colliding_with_ground_is_refused():
    with pytest.raises(NetworkError, match=re.escape("duplicate vertex 'ground'")):
        truncate(_GroundNamedLine(), 2)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lattice_level_is_lexicographic_ball(d):
    gen = IntegerLatticeGen(d=d)
    for k in range(1, 5):
        cube = itertools.product(range(-k, k + 1), repeat=d)
        assert gen.level(k)[0] == [p for p in cube if sum(map(abs, p)) <= k]


def test_lattice_level_never_builds_the_cube():
    # the ball of radius 2 in Z^12 has 313 points; its cube 5**12 = 244140625
    tracemalloc.start()
    try:
        labels = IntegerLatticeGen(d=12).level(2)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(labels) == 313
    assert peak < 2**20


def _with_edge(i, j):
    return lambda u, v, c, ext: (np.append(u, i), np.append(v, j), np.append(c, 1.0), ext)


def _with_exterior(j, value):
    def fault(u, v, c, ext):
        ext = ext.copy()
        ext[j] = value
        return u, v, c, ext

    return fault


@dataclass(frozen=True)
class _FaultyLine(IntegerLineGen):
    """The integer line with ``fault`` applied to the arrays of its levels."""

    fault: object = None

    def level(self, k):
        labels, *arrays = super().level(k)
        return labels, *self.fault(*arrays)


MALFORMED_LEVELS = {
    "repeated-edge": (_with_edge(0, 1), "duplicate edge (-2, -1)"),
    "repeated-reversed": (_with_edge(1, 0), "duplicate edge (-1, -2)"),
    "self-loop": (_with_edge(2, 2), "self loop at 0"),
    "edge-past-level": (_with_edge(0, 5), "edge arrays must list integer positions 0..4"),
    "exterior-length": (
        lambda u, v, c, ext: (u, v, c, ext[:-1]),
        "exterior must hold 5 numbers, one per vertex, got (4,)",
    ),
    "exterior-negative": (
        _with_exterior(1, -1.0),
        "exterior conductance at -1 is -1.0, need a finite number >= 0",
    ),
    "exterior-nan": (
        _with_exterior(0, np.nan),
        "exterior conductance at -2 is nan, need a finite number >= 0",
    ),
}


@pytest.mark.parametrize("fault, msg", MALFORMED_LEVELS.values(), ids=list(MALFORMED_LEVELS))
def test_malformed_levels_are_refused(fault, msg):
    with pytest.raises(NetworkError, match=re.escape(msg)):
        truncate(_FaultyLine(fault=fault), 2)


def test_finite_builders():
    p = path(4)
    assert p.labels == (0, 1, 2, 3)
    assert p.n_edges == 3
    c = cycle(5)
    assert c.n == 5 and c.n_edges == 5
    t = binary_tree(2)
    assert t.n == 7 and t.origin == "r"
    g = geometric_line(2.0, 3)
    assert _edge(g, 1, 2) == 2.0
    sq = lattice(2, 1)
    assert sq.n == 5 and sq.n_edges == 4 and sq.origin == (0, 0)


def test_random_network_is_reproducible_and_valid():
    a = random_network(12, seed=3)
    b = random_network(12, seed=3)
    assert a.labels == b.labels
    np.testing.assert_array_equal(a.conductances, b.conductances)
    assert a.n == 12
    assert (a.conductances > 0).all()
    c = random_network(12, seed=4)
    assert not np.array_equal(a.conductances, c.conductances)


def test_random_network_respects_c_max():
    net = random_network(30, seed=9, c_max=2.5)
    heads, tails, conds = net.edge_arrays
    assert conds.max() <= 2.5
    assert conds.min() > 0.0


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        ({"extra_edges": float("nan")}, "extra_edges must be a finite number >= 0, got nan"),
        ({"extra_edges": float("inf")}, "extra_edges must be a finite number >= 0, got inf"),
        ({"extra_edges": -0.5}, "extra_edges must be a finite number >= 0, got -0.5"),
        ({"extra_edges": "1"}, "extra_edges must be a finite number >= 0, got '1'"),
        ({"c_max": -1.0}, "c_max must be a positive finite number, got -1.0"),
        ({"c_max": 0.0}, "c_max must be a positive finite number, got 0.0"),
        ({"c_max": float("nan")}, "c_max must be a positive finite number, got nan"),
        ({"c_max": float("inf")}, "c_max must be a positive finite number, got inf"),
    ],
)
def test_random_network_parameters_are_checked(kwargs, msg):
    with pytest.raises(NetworkError, match=re.escape(msg)):
        random_network(5, **kwargs)
    assert random_network(5, extra_edges=0).n_edges == 4  # a tree


@pytest.mark.parametrize("extra_edges", [2e5, 1e300])
def test_random_network_stops_drawing_once_complete(extra_edges):
    # a million and 5e300 candidate draws: the loop must stop at K5
    net = random_network(5, seed=1, extra_edges=extra_edges)
    heads, tails, _ = net.edge_arrays
    pairs = {tuple(sorted(map(int, e))) for e in zip(heads, tails)}
    assert net.n_edges == 10 and len(pairs) == 10
