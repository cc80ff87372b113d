import json
import re

import numpy as np
import pytest

from netenergy import (
    GROUND,
    Network,
    NetworkError,
    energy_form,
    function_from_json,
    function_to_json,
    is_harmonic,
    label_key,
    load_function,
    load_network,
    network_from_json,
    network_to_json,
    save_function,
    save_network,
    solve_grounded,
)


def test_basic_properties(p3):
    assert p3.n == 3
    assert p3.labels == ("o", "a", "b")
    assert p3.origin == "o"
    assert p3.origin_index == 0
    assert p3.ground is None
    assert "a" in p3 and "z" not in p3
    assert p3.index("b") == 2
    assert p3.n_edges == 2


def test_laplacian_matrix_hand_checked(p3):
    # degree matrix minus weights for the o--a--b chain
    expected = np.array(
        [
            [1.0, -1.0, 0.0],
            [-1.0, 3.0, -2.0],
            [0.0, -2.0, 2.0],
        ]
    )
    np.testing.assert_allclose(p3.laplacian_matrix.toarray(), expected)


def test_laplacian_apply_matches_matrix(p3, rng):
    u = rng.standard_normal(3)
    np.testing.assert_allclose(p3.laplacian(u), p3.laplacian_matrix @ u)
    # rows sum to zero: constants are flat
    np.testing.assert_allclose(p3.laplacian(np.ones(3)), 0.0, atol=1e-14)


def test_delta_conductance_neighbors(p3):
    np.testing.assert_array_equal(p3.delta("a"), [0.0, 1.0, 0.0])
    o, a, b = (p3.index(x) for x in ("o", "a", "b"))
    w = p3.weight_matrix
    assert p3.conductances[a] == 3.0
    assert w[a, b] == 2.0
    assert w[b, a] == 2.0
    assert w[o, b] == 0.0
    row = w[[a]]
    assert sorted(zip((p3.labels[j] for j in row.indices), row.data)) == [("b", 2.0), ("o", 1.0)]


def test_vertex_functions_are_arrays_of_numbers(p3):
    np.testing.assert_array_equal(p3.as_array([0, 1, 3]), [0.0, 1.0, 3.0])
    u = np.array([0.0, 1.0, 3.0])
    assert p3.as_array(u) is u  # a float array in table order is used as is
    bad = [
        ({"o": 0.0, "a": 1.0, "b": 3.0}, "must be real numbers, got dict"),
        (["0", "1", "3"], "must be real numbers, got <U1 entries"),
        (None, "must be real numbers, got NoneType"),
        ([0.0, None, 3.0], "must be real numbers, got object entries"),
        (np.zeros(2), re.escape("has shape (2,), expected (3,)")),
    ]
    for value, msg in bad:
        with pytest.raises(NetworkError, match=msg):
            p3.as_array(value)
        with pytest.raises(NetworkError, match=msg):
            energy_form(p3, value)
        with pytest.raises(NetworkError, match=re.escape("rhs must be numbers of shape (3,) or (3, m)")):
            solve_grounded(p3, value)


@pytest.mark.parametrize(
    "edges,vertices,msg",
    [
        pytest.param(
            [("o", "a", 1.0), ("o", "a", 2.0)], None, "duplicate edge ('o', 'a')",
            id="edges0-duplicate",
        ),
        pytest.param([("o", "o", 1.0)], None, "self loop at 'o'", id="edges1-self loop"),
        pytest.param(
            [("o", "a", 0.0)], None, "edge ('o', 'a') has conductance 0.0, need c > 0",
            id="edges2-c > 0",
        ),
        pytest.param(
            [("o", "a", -2.0)], None, "edge ('o', 'a') has conductance -2.0, need c > 0",
            id="edges3-c > 0",
        ),
        pytest.param(
            [("o", "a", 1.0), ("x", "y", 1.0)], None, "disconnected", id="edges4-connected"
        ),
        pytest.param(
            [("o", "a", 1.0), ("a", "o", 2.0)], None, "duplicate edge ('a', 'o')",
            id="reversed-duplicate",
        ),
        pytest.param(
            [("o", "a", 1.0), ("a", "b", float("inf"))], None,
            "edge ('a', 'b') has conductance inf, need c > 0", id="inf",
        ),
        pytest.param(
            [("o", "a", 1.0), ("a", "b", float("nan"))], None,
            "edge ('a', 'b') has conductance nan, need c > 0", id="nan",
        ),
        pytest.param([("o", "a", None)], None, "malformed edge ('o', 'a', None)", id="none"),
        pytest.param(
            [("o", "a", 1.0), ("a", "b")], None, "malformed edge ('a', 'b')", id="two-tuple"
        ),
        pytest.param(
            [("o", "a", 1.0), ("a", "b", 1.0)], ["o", "a"], "edge endpoint 'b' not in vertex list",
            id="missing-endpoint",
        ),
        pytest.param(
            [("o", "a", 1.0)], ["o", "a", "o"], "duplicate vertex 'o'", id="repeated-vertex"
        ),
        pytest.param(
            [("o", "b", 1.0)], ["o", {"a": 1}, "b"], "vertex label {'a': 1} is not hashable",
            id="unhashable-vertex",
        ),
        pytest.param(
            [("o", (1, [2]), 1.0)], None, "vertex label (1, [2]) is not hashable",
            id="unhashable-endpoint",
        ),
    ],
)
def test_invalid_networks_rejected(edges, vertices, msg):
    with pytest.raises(NetworkError, match=re.escape(msg)):
        Network(edges, origin="o", vertices=vertices)
    # every case that can be written as positions fails the same way from arrays
    ends = [x for e in edges for x in e[:2]]
    labels = vertices or [x for i, x in enumerate(ends) if x not in ends[:i]]
    try:
        u, v, c = zip(*[(labels.index(x), labels.index(y), float(c)) for x, y, c in edges])
    except (TypeError, ValueError):  # malformed edge or endpoint missing from the list
        return
    with pytest.raises(NetworkError, match=re.escape(msg)):
        Network.from_arrays(labels, u, v, c, labels.index("o"))


@pytest.mark.parametrize(
    "u, v, c, origin, ground",
    [
        ([0, 1], [1, 3], [1.0, 1.0], 0, None),
        ([0, -1], [1, 2], [1.0, 1.0], 0, None),
        ([0, 1], [1, 2], [1.0], 0, None),
        ([[0, 1]], [[1, 2]], [[1.0, 1.0]], 0, None),
        ([0, 1], [1, 2], [1.0, 1.0], 3, None),
        ([0, 1], [1, 2], [1.0, 1.0], 0, -1),
        ([0.0, 1.5], [1, 2], [1.0, 1.0], 0, None),
        (["0", "1"], [1, 2], [1.0, 1.0], 0, None),
        ([0, 1], [1, 2], [1.0, 1.0], 0.5, None),
    ],
    ids=["endpoint-past-end", "negative-endpoint", "short-conductances", "two-dimensional",
         "origin-past-end", "negative-ground", "float-endpoint", "string-endpoint", "float-origin"],
)
def test_from_arrays_refuses_positions_outside_the_table(u, v, c, origin, ground):
    with pytest.raises(NetworkError, match=r"integer positions 0\.\.2"):
        Network.from_arrays(["o", "a", "b"], u, v, c, origin, ground)


def test_from_arrays_matches_the_label_constructor():
    edges = [("b", "a", 2.0), ("o", "a", 1.0), ("b", "ground", 0.5)]
    by_label = Network(edges, origin="o", vertices=["o", "a", "b", "ground"], ground="ground")
    by_index = Network.from_arrays(["o", "a", "b", "ground"], [2, 0, 2], [1, 1, 3], [2.0, 1.0, 0.5], 0, 3)
    assert by_index.labels == by_label.labels
    assert (by_index.origin, by_index.ground, by_index.ground_index) == ("o", "ground", 3)
    for got, want in zip(by_index.edge_arrays, by_label.edge_arrays):
        np.testing.assert_array_equal(got, want)
    # storage puts the lower position first
    np.testing.assert_array_equal(by_index.edge_arrays[0], [1, 0, 2])
    assert network_to_json(by_index) == network_to_json(by_label)


def test_origin_must_exist_and_differ_from_ground():
    with pytest.raises(NetworkError):
        Network([("o", "a", 1.0)], origin="missing")
    with pytest.raises(NetworkError):
        Network([("o", "a", 1.0)], origin="o", ground="o")


def test_ground_vertex():
    net = Network([("o", "a", 1.0), ("a", GROUND, 2.0)], origin="o", ground=GROUND)
    assert net.ground == GROUND
    assert net.ground_index == net.index(GROUND)
    # the ground is excluded from the interior without being listed
    assert list(net.interior_indices()) == [0, 1]


def test_label_key():
    assert label_key("a") == "a"
    assert label_key(3) == "3"
    assert label_key((1, -2)) == "1,-2"


def test_network_json_roundtrip(tmp_path):
    net = Network(
        [((0, 0), (1, 0), 1.5), ((0, 0), (0, 1), 2.5)],
        origin=(0, 0),
    )
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    assert back.labels == net.labels
    assert back.origin == (0, 0)
    np.testing.assert_allclose(
        back.laplacian_matrix.toarray(), net.laplacian_matrix.toarray()
    )
    # the document itself is plain JSON
    doc = json.loads(path.read_text())
    assert network_from_json(doc).labels == net.labels
    assert network_to_json(net)["origin"] == [0, 0]


@pytest.mark.parametrize(
    "c, msg",
    [
        *[(c, f"edge ('o', 'a') has conductance {c!r}, which is not a number")
          for c in ("1.5", "abc", True, None, [1.0])],
        (10**400, "malformed edge ('o', 'a', 1000"),  # a JSON integer beyond the float range
    ],
    ids=["numeric-string", "string", "bool", "null", "array", "int-beyond-float"],
)
def test_graph_file_conductances_must_be_numbers(c, msg):
    doc = {"vertices": ["o", "a"], "origin": "o", "edges": [{"u": "o", "v": "a", "c": c}]}
    with pytest.raises(NetworkError, match=re.escape(msg)):
        network_from_json(doc)
    doc["edges"][0]["c"] = 2  # a JSON integer is a number
    assert network_from_json(doc).edge_arrays[2].tolist() == [2.0]


def test_function_json_roundtrip(tmp_path, p3, rng):
    u = rng.standard_normal(3)
    path = tmp_path / "u.json"
    save_function(p3, u, path)
    np.testing.assert_allclose(load_function(p3, path), u)
    doc = function_to_json(p3, u)
    assert set(doc) == {"o", "a", "b"}
    np.testing.assert_allclose(function_from_json(p3, doc), u)


def test_function_json_missing_vertex(p3):
    with pytest.raises(NetworkError, match="missing"):
        function_from_json(p3, {"o": 0.0, "a": 1.0})
    with pytest.raises(NetworkError, match="unknown"):
        function_from_json(p3, {"o": 0.0, "a": 1.0, "b": 2.0, "zz": 9.0})
    with pytest.raises(NetworkError, match="must map vertex keys"):
        function_from_json(p3, [0.0, 1.0, 2.0])
    for value in ([1], "abc", "1.5", True, None):
        with pytest.raises(NetworkError, match=re.escape(f"value at vertex key 'o' is not a number: {value!r}")):
            function_from_json(p3, {"o": value, "a": 1.0, "b": 2.0})


def test_function_json_refuses_colliding_keys():
    net = Network([((1, 2), "1,2", 1.0), ("1,2", "o", 1.0)], origin="o")
    with pytest.raises(NetworkError, match="collide"):
        function_to_json(net, np.zeros(3))


def test_bad_json_file_names_its_path(tmp_path, p3):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    with pytest.raises(NetworkError, match=re.escape(f"invalid graph JSON in {bad}")):
        load_network(bad)
    with pytest.raises(NetworkError, match=re.escape(f"invalid function JSON in {bad}")):
        load_function(p3, bad)
    bad.write_bytes(b'{"o": \xff}')
    with pytest.raises(NetworkError, match=re.escape(f"invalid graph JSON in {bad}")):
        load_network(bad)


def test_is_harmonic_on_path():
    net = Network([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], origin=0)
    linear = np.array([0.0, 1.0, 2.0, 3.0])
    assert is_harmonic(net, linear, boundary=[0, 3])
    assert not is_harmonic(net, np.array([0.0, 5.0, 2.0, 3.0]), boundary=[0, 3])
    # nothing but constants is harmonic everywhere on a finite network
    assert is_harmonic(net, np.full(4, 2.0))
    assert not is_harmonic(net, linear)
