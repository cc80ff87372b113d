import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from netenergy import (
    EnergyVector,
    GramMatrix,
    InnerSpace,
    Network,
    NetworkError,
    OperatorError,
    energy_form,
    energy_pairings,
    gram,
    random_network,
    to_energy_vector,
)

FINITE = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def test_hand_checked_values(p3):
    # E(u) = 1*(0-1)^2 + 2*(1-3)^2 = 9 on the o--a--b chain
    u = np.array([0.0, 1.0, 3.0])
    v = np.array([2.0, 1.0, 1.0])
    assert energy_form(p3, u) == pytest.approx(9.0)
    assert energy_form(p3, u, v) == pytest.approx(-1.0)
    assert gram("l2", p3, [u, v]).matrix[0, 1] == pytest.approx(4.0)


def test_constants_are_the_kernel(p3):
    assert energy_form(p3, np.full(3, 7.5)) == 0.0
    u = np.array([0.0, 1.0, 3.0])
    assert energy_form(p3, u, np.full(3, -2.0)) == 0.0


@given(
    u=arrays(np.float64, 3, elements=FINITE),
    v=arrays(np.float64, 3, elements=FINITE),
    w=arrays(np.float64, 3, elements=FINITE),
    s=st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=150, deadline=None)
def test_energy_form_is_symmetric_bilinear(u, v, w, s):
    net = Network([("o", "a", 1.0), ("a", "b", 2.0)], origin="o")
    assert energy_form(net, u, v) == pytest.approx(energy_form(net, v, u))
    lhs = energy_form(net, u, v + s * w)
    rhs = energy_form(net, u, v) + s * energy_form(net, u, w)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-4)


@given(u=arrays(np.float64, 3, elements=FINITE))
@settings(max_examples=100, deadline=None)
def test_energy_is_nonnegative_and_shift_invariant(u):
    net = Network([("o", "a", 1.0), ("a", "b", 2.0)], origin="o")
    e = energy_form(net, u)
    assert e >= 0.0
    assert energy_form(net, u + 3.25) == pytest.approx(e, rel=1e-9, abs=1e-6)


def test_energy_pairings_matches_scalar_form(p3, rng):
    rows = [rng.standard_normal(3) for _ in range(4)]
    cols = [rng.standard_normal(3) for _ in range(2)]
    m = energy_pairings(p3, rows, cols)
    assert m.shape == (4, 2)
    for i, u in enumerate(rows):
        for j, v in enumerate(cols):
            assert m[i, j] == pytest.approx(energy_form(p3, u, v))


def test_to_energy_vector_regauges(p3):
    v = to_energy_vector(p3, np.array([5.0, 6.0, 6.0]))
    np.testing.assert_array_equal(v.values, [0.0, 1.0, 1.0])
    assert v.energy == pytest.approx(1.0)
    assert v.norm() == pytest.approx(1.0)
    assert v("b") == 1.0


def test_energy_vector_validation(p3):
    with pytest.raises(NetworkError, match="vanish"):
        EnergyVector(net=p3, values=np.array([1.0, 0.0, 0.0]), energy=1.0)
    with pytest.raises(NetworkError, match="shape"):
        EnergyVector(net=p3, values=np.zeros(2), energy=0.0)
    v = to_energy_vector(p3, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        v.values[1] = 9.0  # representatives are read-only
    other = Network([("o", "a", 1.0)], origin="o")
    with pytest.raises(NetworkError, match="different"):
        v.inner(to_energy_vector(other, np.array([0.0, 1.0])))


def test_energy_gram_of_kernel_elements(p3):
    # dipole solutions written down by hand for the chain
    v_a = to_energy_vector(p3, np.array([0.0, 1.0, 1.0]))
    v_b = to_energy_vector(p3, np.array([0.0, 1.0, 1.5]))
    g = gram("energy", p3, [v_a, v_b], labels=("a", "b"))
    np.testing.assert_allclose(g.matrix, [[1.0, 1.0], [1.0, 1.5]])
    assert g.labels == ("a", "b")
    assert g.dim == 2
    InnerSpace(g.labels, g.matrix)  # positive definite


def test_l2_gram_uses_raw_representatives(p3):
    g = gram("l2", p3, [np.ones(3)])
    assert g.matrix[0, 0] == pytest.approx(3.0)
    # the energy kind sees only edge differences, so a constant collapses to zero
    ge = gram("energy", p3, [np.ones(3)])
    assert ge.matrix[0, 0] == 0.0


def test_energy_gram_matches_pairings(rng):
    net = random_network(40, seed=3)
    # raw representatives: the gram must not depend on the gauge
    us = [rng.standard_normal(net.n) + rng.standard_normal() for _ in range(7)]
    g = gram("energy", net, us).matrix
    np.testing.assert_array_equal(g, g.T)
    np.testing.assert_allclose(g, energy_pairings(net, us, us), rtol=1e-13, atol=1e-13)
    assert gram("energy", net, []).matrix.shape == (0, 0)


def test_gram_rejects_unknown_kind(p3):
    with pytest.raises(ValueError, match="space kind"):
        gram("sobolev", p3, [np.zeros(3)])


def test_gram_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        GramMatrix(labels=("x", "y"), matrix=np.array([[1.0, 2.0], [0.0, 1.0]]))
    g = GramMatrix(labels=("x", "y"), matrix=np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert g.dim == 2
    InnerSpace(g.labels, g.matrix)  # positive definite
    singular = GramMatrix(labels=("x", "y"), matrix=np.ones((2, 2)))
    with pytest.raises(OperatorError, match="not positive definite"):
        InnerSpace(singular.labels, singular.matrix)
    # a non-finite entry is refused, on the diagonal too
    for bad in (np.nan, np.inf, -np.inf):
        for m in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]]):
            with pytest.raises(ValueError, match="non-finite entry"):
                GramMatrix(labels=("x", "y"), matrix=np.array(m))
    # an exactly symmetric input is stored bit for bit, a rounding-level
    # asymmetry is symmetrized
    m = np.array([[0.1, 1.0 / 3.0], [1.0 / 3.0, 2.0 ** -1074]])
    assert GramMatrix(labels=("x", "y"), matrix=m).matrix.tobytes() == m.tobytes()
    m = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
    np.testing.assert_array_equal(GramMatrix(labels=("x", "y"), matrix=m).matrix, 0.5 * (m + m.T))
    assert isinstance(InnerSpace.standard(2), GramMatrix)
