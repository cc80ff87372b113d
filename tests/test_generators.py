import itertools
import re
from dataclasses import dataclass

import numpy as np
import pytest

from netenergy import (
    GROUND,
    BinaryTreeGen,
    GeometricLineGen,
    IntegerLatticeGen,
    IntegerLineGen,
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
    assert tree.level(1) == ["r", "r0", "r1"]
    assert len(tree.level(5)) == 2**6 - 1
    assert IntegerLineGen().level(2) == [-2, -1, 0, 1, 2]
    assert GeometricLineGen(ratio=2.0).level(3) == [0, 1, 2]
    lat = IntegerLatticeGen(d=2)
    assert lat.origin == (0, 0)
    assert len(lat.level(1)) == 5


def test_generator_neighbors():
    tree = BinaryTreeGen()
    assert sorted(tree.neighbors("r")) == [("r0", 1.0), ("r1", 1.0)]
    assert sorted(tree.neighbors("r0")) == [("r", 1.0), ("r00", 1.0), ("r01", 1.0)]
    geo = GeometricLineGen(ratio=3.0)
    assert dict(geo.neighbors(2)) == {1: 3.0, 3: 9.0}


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


def _truncate_oracle(gen, k):
    """Plain-Python wired truncation: (labels, in-level edges as
    (head, tail, c) positions in first-seen order, ground conductances)."""
    level = list(gen.level(k))
    pos = {v: i for i, v in enumerate(level)}
    edges, ground = {}, {}
    for x in level:
        for y, c in gen.neighbors(x):
            if y in pos:
                edges.setdefault((min(pos[x], pos[y]), max(pos[x], pos[y])), c)
            else:
                ground[x] = ground.get(x, 0.0) + c
    return level, [(i, j, c) for (i, j), c in edges.items()], ground


@pytest.mark.parametrize(
    "gen",
    [
        BinaryTreeGen(),
        IntegerLineGen(conductance=0.5),
        GeometricLineGen(ratio=3.0),
        IntegerLatticeGen(d=1),
        IntegerLatticeGen(d=2),
        IntegerLatticeGen(d=3),
    ],
    ids=["tree", "line", "geometric", "lattice1", "lattice2", "lattice3"],
)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_truncate_matches_reference(gen, k):
    level, edges, ground = _truncate_oracle(gen, k)
    net = truncate(gen, k)
    assert net.labels == tuple(level) + (GROUND,)
    heads, tails, conds = net.edge_arrays
    g = net.ground_index
    inner = [(int(i), int(j), float(c)) for i, j, c in zip(heads, tails, conds) if j != g]
    assert inner == edges
    wired = {net.labels[i]: float(c) for i, j, c in zip(heads, tails, conds) if j == g}
    assert list(wired.items()) == list(ground.items())


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lattice_level_is_lexicographic_ball(d):
    gen = IntegerLatticeGen(d=d)
    for k in range(1, 5):
        cube = itertools.product(range(-k, k + 1), repeat=d)
        assert gen.level(k) == [p for p in cube if sum(map(abs, p)) <= k]


class _SlopedLine(IntegerLineGen):
    """c(v, v - 1) = 2 but c(v, v + 1) = 1: the two ends disagree."""

    def neighbors(self, v):
        return [(v - 1, 2.0), (v + 1, 1.0)]


class _OneWayLine(IntegerLineGen):
    """v lists v + 1, which does not list v back."""

    def neighbors(self, v):
        return [(v + 1, 1.0)]


@dataclass(frozen=True)
class _RepeatedLine(IntegerLineGen):
    """The neighbor at ``v + step`` is listed twice."""

    step: int = 1

    def neighbors(self, v):
        return super().neighbors(v) + [(v + self.step, self.conductance)]


@pytest.mark.parametrize(
    "gen, msg",
    [
        (
            _SlopedLine(),
            "asymmetric neighbor rule at (-2, -1): conductances [1.0] at -2, [2.0] at -1",
        ),
        (
            _OneWayLine(),
            "asymmetric neighbor rule at (-2, -1): conductances [1.0] at -2, [] at -1",
        ),
        (
            _RepeatedLine(step=1),
            "duplicate edge (-2, -1): conductances [1.0, 1.0] at -2, [1.0] at -1",
        ),
        (
            _RepeatedLine(step=-1),
            "duplicate edge (-2, -1): conductances [1.0] at -2, [1.0, 1.0] at -1",
        ),
    ],
    ids=["conductances-differ", "one-way", "repeated-upward", "repeated-downward"],
)
def test_neighbor_rules_must_agree(gen, msg):
    with pytest.raises(NetworkError, match=re.escape(msg)):
        truncate(gen, 2)


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
