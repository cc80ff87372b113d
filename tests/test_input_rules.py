"""Each input rule has one site; these tests reach every entry point that
relies on it with an input the rule refuses."""

import re

import numpy as np
import pytest

from netenergy import (
    BinaryTreeGen,
    GeometricLineGen,
    GramMatrix,
    InnerSpace,
    IntegerLatticeGen,
    LinOp,
    NetworkError,
    OperatorError,
    binary_tree,
    cycle,
    dstar_constant,
    form_operator_roundtrip,
    friedrichs,
    geometric_line,
    is_harmonic,
    krein_lambda,
    lattice,
    network_kl,
    pair_spectrum_check,
    path,
    random_network,
    spectral_measure,
    transience_probe,
    truncate,
    verify_pair,
)

# (name in the message, least value, the call)
COUNT_SITES = [
    ("truncation level", 1, lambda v: truncate(BinaryTreeGen(), v)),
    ("lattice dimension", 1, lambda v: IntegerLatticeGen(d=v)),
    ("path vertex count", 2, lambda v: path(v)),
    ("cycle vertex count", 3, lambda v: cycle(v)),
    ("binary tree depth", 1, lambda v: binary_tree(v)),
    ("lattice ball radius", 1, lambda v: lattice(2, v)),
    ("geometric line vertex count", 2, lambda v: geometric_line(2.0, v)),
    ("random network vertex count", 2, lambda v: random_network(v)),
    ("k_max", 1, lambda v: transience_probe(BinaryTreeGen(), k_max=v)),
    ("stride", 1, lambda v: transience_probe(BinaryTreeGen(), k_max=3, stride=v)),
]


@pytest.mark.parametrize("name, least, call", COUNT_SITES, ids=[s[0] for s in COUNT_SITES])
def test_count_rule_refuses_small_and_non_integer_counts(name, least, call):
    for bad in (0, least - 1, least + 0.5, float(least), "3"):
        msg = f"{name} must be an integer >= {least}, got {bad!r}"
        with pytest.raises(NetworkError, match=re.escape(msg)):
            call(bad)
    call(np.int64(least))  # numpy integers are integers


def _spaces():
    g = np.array([[2.0, 0.5], [0.5, 1.0]])
    return InnerSpace.from_matrix(g), InnerSpace.from_matrix(2.0 * g)


def test_operator_on_space_rule():
    h, other = _spaces()
    on_other = LinOp(other, other, np.eye(2))
    into_other = LinOp(h, other, np.eye(2))
    msg = "operator must act on the given space"
    for a in (on_other, into_other):
        with pytest.raises(OperatorError, match=msg):
            friedrichs(h, a)
        with pytest.raises(OperatorError, match=msg):
            form_operator_roundtrip(h, a, "operator_to_form")
    with pytest.raises(OperatorError, match=msg):
        spectral_measure(into_other, [1.0, 0.0])


def test_composition_rule():
    h, other = _spaces()
    with pytest.raises(OperatorError, match="composition spaces do not match"):
        LinOp(h, h, np.eye(2)) @ LinOp(h, other, np.eye(2))


def test_equal_spaces_match_exactly():
    g = np.array([[2.0, 0.5], [0.5, 1.0]])
    h, twin = InnerSpace.from_matrix(g), InnerSpace.from_matrix(g.copy())
    a = LinOp(h, h, 2.0 * np.eye(2))
    composed = a @ LinOp(twin, twin, np.eye(2))
    assert composed.domain is twin and composed.codomain is h
    np.testing.assert_array_equal(friedrichs(twin, a).matrix, friedrichs(h, a).matrix)

    nudged = g.copy()
    nudged[0, 0] += 1e-14
    for space in (InnerSpace.from_matrix(nudged), InnerSpace.from_matrix(g, labels=("x", "y"))):
        with pytest.raises(OperatorError, match="composition spaces do not match"):
            a @ LinOp(space, space, np.eye(2))
        with pytest.raises(OperatorError, match="operator must act on the given space"):
            friedrichs(space, a)


def test_second_gram_rule():
    h = InnerSpace.standard(2)
    for wrong in (np.eye(3), GramMatrix((0, 1, 2), np.eye(3)), np.ones(2)):
        shape = np.shape(getattr(wrong, "matrix", wrong))
        with pytest.raises(OperatorError, match=re.escape(f"second Gram has shape {shape}")):
            krein_lambda(h, wrong)
        with pytest.raises(OperatorError, match=re.escape(f"form Gram has shape {shape}")):
            form_operator_roundtrip(h, wrong, "form_to_operator")


def test_phi_must_have_the_space_dimension():
    lam = krein_lambda(InnerSpace.standard(2), np.diag([1.0, 2.0]))
    for phi in ([1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]):
        with pytest.raises(OperatorError, match=r"phi has shape \(.*\), expected \(2,\)"):
            spectral_measure(lam, phi)


def test_kernel_basis_needs_a_vertex_besides_the_origin():
    with pytest.raises(NetworkError, match="kernel basis is empty"):
        network_kl(truncate(GeometricLineGen(), 1))


def test_tol_rule_in_the_pair_checks():
    a = LinOp(InnerSpace.standard(2), InnerSpace.standard(2), np.eye(2))
    b = LinOp(InnerSpace.standard(2), InnerSpace.standard(2), 2.0 * np.eye(2))
    for tol in (np.nan, -1.0, np.inf, "1e-8", None):
        for check in (verify_pair, pair_spectrum_check):
            with pytest.raises(OperatorError, match="tol must be a finite number >= 0"):
                check(a, b, tol=tol)
    assert verify_pair(a, a, tol=0.0).is_pair
    assert not pair_spectrum_check(a, b, tol=0.0)


def test_non_numbers_are_typed_errors():
    h = InnerSpace.standard(2)
    with pytest.raises(OperatorError, match="pairing vector has a non-finite entry"):
        dstar_constant(h, [np.nan, 1.0])
    a = LinOp(h, h, np.eye(2))
    for c in ("x", None, np.nan):
        with pytest.raises(OperatorError, match="lower bound must be a finite number"):
            friedrichs(h, a, c=c)


def test_tol_rule_in_is_harmonic():
    net = path(3)
    for tol in (np.nan, np.inf, -1.0):
        with pytest.raises(NetworkError, match="tol must be a finite number >= 0"):
            is_harmonic(net, np.zeros(3), tol=tol)
    assert is_harmonic(net, np.zeros(3), tol=0.0)


def test_operator_inputs_must_be_arrays_of_real_numbers():
    h = InnerSpace.standard(2)
    lam = krein_lambda(h, np.diag([1.0, 2.0]))
    cases = [
        ("phi", lambda: spectral_measure(lam, ["a", "b"])),
        ("pairing vector", lambda: dstar_constant(h, ["a", "b"])),
        ("second Gram", lambda: krein_lambda(h, [[1, 2], [3]])),
        ("operator", lambda: LinOp(h, h, [[1.0, 0.0], [0.0, "x"]])),
        ("operator", lambda: LinOp(h, h, [[True, False], [False, True]])),
    ]
    for name, call in cases:
        with pytest.raises(OperatorError, match=f"{name} must be an array of real numbers"):
            call()
