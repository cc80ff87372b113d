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


def test_tree_truncation_wires_boundary():
    net = truncate(BinaryTreeGen(), 1)
    assert set(net.labels) == {"r", "r0", "r1", GROUND}
    assert net.ground == GROUND
    assert net.origin == "r"
    # the two edges leaving each depth-1 vertex collapse onto the ground
    assert net.edge_conductance("r0", GROUND) == 2.0
    assert net.edge_conductance("r1", GROUND) == 2.0
    assert net.edge_conductance("r", "r0") == 1.0
    assert truncate(BinaryTreeGen(), 2).n == 7 + 1  # depth-2 tree plus the ground


def test_line_truncation_wires_both_ends():
    net = truncate(IntegerLineGen(), 1)
    assert set(net.labels) == {-1, 0, 1, GROUND}
    assert net.edge_conductance(1, GROUND) == 1.0
    assert net.edge_conductance(-1, GROUND) == 1.0


def test_geometric_truncation_scales_boundary_edge():
    net = truncate(GeometricLineGen(ratio=2.0), 2)
    assert set(net.labels) == {0, 1, GROUND}
    # the cut edge (1, 2) carries conductance ratio^1
    assert net.edge_conductance(1, GROUND) == 2.0


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


def test_finite_builders():
    p = path(4)
    assert p.labels == (0, 1, 2, 3)
    assert p.n_edges == 3
    c = cycle(5)
    assert c.n == 5 and c.n_edges == 5
    t = binary_tree(2)
    assert t.n == 7 and t.origin == "r"
    g = geometric_line(2.0, 3)
    assert g.edge_conductance(1, 2) == 2.0
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
