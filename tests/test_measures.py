import math

import numpy as np
import pytest

from netenergy import (
    DiscreteMeasure,
    InnerSpace,
    OperatorError,
    cantor_witness,
    dstar_constant,
    rn_lambda,
)


def test_discrete_measure_basics():
    mu = DiscreteMeasure(points=(1, 2), weights=np.array([0.5, 0.5]))
    assert mu.weights.sum() == 1.0
    assert mu.weight_at(1) == 0.5
    assert mu.weight_at(7) == 0.0
    assert mu.support == frozenset({1, 2})
    back = DiscreteMeasure.from_json(mu.to_json())
    assert back.points == mu.points
    np.testing.assert_array_equal(back.weights, mu.weights)


@pytest.mark.parametrize(
    "points,weights",
    [
        ((1, 1), [0.5, 0.5]),
        ((1, 2), [0.5]),
        ((1, 2), [0.5, 0.0]),
        ((1, 2), [0.5, -1.0]),
        ((), []),
    ],
)
def test_discrete_measure_validation(points, weights):
    with pytest.raises(ValueError):
        DiscreteMeasure(points=points, weights=np.asarray(weights, dtype=float))


def test_rn_lambda_worked_example():
    # densities 4 and 9 against the uniform measure on two points
    mu1 = DiscreteMeasure(points=(1, 2), weights=np.array([0.5, 0.5]))
    mu2 = DiscreteMeasure(points=(1, 2), weights=np.array([2.0, 4.5]))
    lam = rn_lambda(mu1, mu2)
    np.testing.assert_allclose(lam.matrix, np.diag([4.0, 9.0]), atol=1e-13)
    # the defining identity of the multiplication operator
    phi = np.array([1.0, -2.0])
    lhs = phi @ np.diag(mu1.weights) @ lam.apply(phi)
    assert lhs == pytest.approx(phi @ np.diag(mu2.weights) @ phi)


def test_rn_lambda_rejects_non_absolutely_continuous():
    mu1 = DiscreteMeasure(points=(1, 2), weights=np.array([0.5, 0.5]))
    mu2 = DiscreteMeasure(points=(1, 3), weights=np.array([1.0, 1.0]))
    with pytest.raises(OperatorError, match="absolutely continuous"):
        rn_lambda(mu1, mu2)


def test_cantor_witness_closed_form():
    c1, _ = cantor_witness(1)
    assert c1 == pytest.approx(math.sqrt(1.5), abs=1e-12)
    c10, report = cantor_witness(10)
    assert c10 == pytest.approx(7.59375, abs=1e-10)  # (3/2)^5 exactly
    for level, constant, predicted in report.rows:
        assert predicted == pytest.approx(1.5 ** (level / 2.0))
        assert constant == pytest.approx(predicted, abs=1e-8)


def test_cantor_witness_log_slope():
    _, report = cantor_witness(8)
    slope = report.log_slope(min_level=2)
    assert slope == pytest.approx(0.5 * math.log(1.5), rel=1e-6)


def test_cantor_witness_level_bounds():
    with pytest.raises(ValueError):
        cantor_witness(-1)
    with pytest.raises(ValueError):
        cantor_witness(15)


def test_witness_agrees_with_generic_representer_solve():
    # rebuild C_n from the public pieces: pairings of the flat element
    # against the Cantor cells inside L2 of the uniform weights
    for n in range(0, 7):
        cells = range(2 ** n)
        g1 = InnerSpace.from_matrix(
            np.diag(np.full(len(cells), 3.0 ** (-n))), labels=tuple(cells)
        )
        pairings = np.full(len(cells), 2.0 ** (-n))
        expected, _ = cantor_witness(n)
        assert dstar_constant(g1, pairings) == pytest.approx(expected, rel=1e-12)
