import numpy as np
import pytest

from netenergy import (
    CoercivityError,
    InnerSpace,
    LinOp,
    OperatorError,
    adjoint,
    dirac_spaces,
    dstar_constant,
    form_operator_roundtrip,
    friedrichs,
    krein_lambda,
    krein_network_extension,
    network_kl,
    operator_norm,
    pair_spectrum_check,
    semibounded_friedrichs,
    solve_dipoles,
    spectral_measure,
    verify_pair,
)
from netenergy.energy import energy_pairings


def _spd(rng, n, shift=0.5):
    r = rng.standard_normal((n, n))
    return r.T @ r + shift * np.eye(n)


# -- spaces and raw operators ----------------------------------------------


def test_inner_space_basics():
    g = np.array([[2.0, 1.0], [1.0, 2.0]])
    space = InnerSpace.from_matrix(g, labels=("x", "y"))
    assert space.dim == 2
    assert space.labels == ("x", "y")
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert space.inner(u, v) == pytest.approx(1.0)
    assert space.norm(u) == pytest.approx(np.sqrt(2.0))
    np.testing.assert_allclose(g @ space.solve_gram(g), g)


def test_inner_space_rejects_indefinite():
    with pytest.raises(OperatorError):
        InnerSpace.from_matrix(np.array([[1.0, 3.0], [3.0, 1.0]]))


def test_linop_must_fit_spaces(rng):
    h1 = InnerSpace.standard(3)
    h2 = InnerSpace.standard(2)
    op = LinOp(domain=h1, codomain=h2, matrix=np.ones((2, 3)))
    np.testing.assert_allclose(op.apply([1.0, 1.0, 1.0]), [3.0, 3.0])
    assert not op.is_endomorphism()
    with pytest.raises(OperatorError):
        LinOp(domain=h1, codomain=h2, matrix=np.ones((3, 2)))


def test_adjoint_identity(rng):
    for _ in range(10):
        n, m = rng.integers(2, 7, size=2)
        h1 = InnerSpace.from_matrix(_spd(rng, int(n)))
        h2 = InnerSpace.from_matrix(_spd(rng, int(m)))
        a = LinOp(domain=h1, codomain=h2, matrix=rng.standard_normal((int(m), int(n))))
        star = adjoint(a)
        for _ in range(3):
            phi = rng.standard_normal(int(n))
            psi = rng.standard_normal(int(m))
            lhs = h2.inner(a.apply(phi), psi)
            rhs = h1.inner(phi, star.apply(psi))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
        # the adjoint of the adjoint is the original map
        np.testing.assert_allclose(adjoint(star).matrix, a.matrix, atol=1e-9)


def test_verify_pair_accepts_true_adjoints_and_flags_fakes(rng):
    h1 = InnerSpace.from_matrix(_spd(rng, 4))
    h2 = InnerSpace.from_matrix(_spd(rng, 3))
    a = LinOp(domain=h1, codomain=h2, matrix=rng.standard_normal((3, 4)))
    report = verify_pair(a, adjoint(a))
    assert report.is_pair
    assert report.residual <= 1e-10
    assert report.containment_defect <= 1e-9
    wrong = LinOp(domain=h2, codomain=h1, matrix=adjoint(a).matrix + 0.01)
    bad = verify_pair(a, wrong)
    assert not bad.is_pair
    assert bad.residual > 1e-10


def test_verify_pair_needs_matching_spaces(rng):
    h1 = InnerSpace.standard(3)
    h2 = InnerSpace.standard(2)
    a = LinOp(domain=h1, codomain=h2, matrix=np.zeros((2, 3)))
    with pytest.raises(OperatorError, match="spaces"):
        verify_pair(a, a)


def test_operator_norm_diagonal():
    h = InnerSpace.standard(2)
    op = LinOp(domain=h, codomain=h, matrix=np.diag([3.0, 1.0]))
    assert operator_norm(op) == pytest.approx(3.0)
    assert op.symmetry_defect() == 0.0


def test_pair_spectrum_check_detects_scaling(rng):
    h1 = InnerSpace.from_matrix(_spd(rng, 4))
    h2 = InnerSpace.from_matrix(_spd(rng, 4))
    a = LinOp(domain=h1, codomain=h2, matrix=rng.standard_normal((4, 4)))
    assert pair_spectrum_check(a, adjoint(a))
    doubled = LinOp(domain=h2, codomain=h1, matrix=2.0 * adjoint(a).matrix)
    assert not pair_spectrum_check(a, doubled)


# -- extensions ------------------------------------------------------------


def test_friedrichs_identity_on_diagonal():
    space = InnerSpace.standard(3)
    a = LinOp(domain=space, codomain=space, matrix=np.diag([2.0, 5.0, 1.0]))
    ext = friedrichs(space, a)
    np.testing.assert_allclose(ext.matrix, a.matrix, atol=1e-10)


def test_friedrichs_random_geometry(rng):
    for _ in range(10):
        n = int(rng.integers(2, 12))
        g = _spd(rng, n)
        space = InnerSpace.from_matrix(g)
        form = g + _spd(rng, n, shift=0.05)
        a = LinOp(domain=space, codomain=space, matrix=space.solve_gram(form))
        ext = friedrichs(space, a)
        scale = 1.0 + np.abs(a.matrix).max()
        assert np.max(np.abs(ext.matrix - a.matrix)) / scale < 1e-8


def test_friedrichs_refuses_non_coercive():
    space = InnerSpace.standard(2)
    a = LinOp(domain=space, codomain=space, matrix=0.5 * np.eye(2))
    with pytest.raises(CoercivityError):
        friedrichs(space, a)


def test_semibounded_shifts_and_returns():
    space = InnerSpace.standard(2)
    a = LinOp(domain=space, codomain=space, matrix=np.diag([-1.0, 2.0]))
    ext = semibounded_friedrichs(space, a, c=-1.0)
    np.testing.assert_allclose(ext.matrix, a.matrix, atol=1e-9)
    with pytest.raises(CoercivityError, match="bound"):
        semibounded_friedrichs(space, a, c=0.0)


def test_roundtrip_standard_space():
    space = InnerSpace.standard(2)
    q = np.array([[2.0, 1.0], [1.0, 2.0]])
    a = form_operator_roundtrip(space, q, "form_to_operator")
    np.testing.assert_allclose(a.matrix, q, atol=1e-10)
    back = form_operator_roundtrip(space, a, "operator_to_form")
    np.testing.assert_allclose(back.matrix, q, atol=1e-10)


def test_roundtrip_validates_inputs():
    space = InnerSpace.standard(2)
    with pytest.raises(CoercivityError):
        form_operator_roundtrip(space, 0.5 * np.eye(2), "form_to_operator")
    with pytest.raises(OperatorError, match="direction"):
        form_operator_roundtrip(space, np.eye(2), "sideways")


# -- the canonical second-inner-product operator ---------------------------


def test_krein_lambda_diagonal_case():
    h1 = InnerSpace.standard(2)
    lam = krein_lambda(h1, np.diag([2.0, 3.0]))
    np.testing.assert_allclose(lam.matrix, np.diag([2.0, 3.0]))


def test_krein_lambda_defining_identity(rng):
    g1 = _spd(rng, 5)
    r = rng.standard_normal((3, 5))
    g2 = r.T @ r  # rank-deficient second Gram is fine
    h1 = InnerSpace.from_matrix(g1)
    lam = krein_lambda(h1, g2)
    for _ in range(5):
        phi = rng.standard_normal(5)
        assert phi @ g1 @ lam.apply(phi) == pytest.approx(phi @ g2 @ phi, rel=1e-9)


def test_krein_lambda_rejects_indefinite(rng):
    h1 = InnerSpace.standard(2)
    with pytest.raises(OperatorError, match="semidefinite"):
        krein_lambda(h1, np.diag([1.0, -0.5]))


def test_spectral_measure_diagonal():
    h1 = InnerSpace.standard(2)
    lam = krein_lambda(h1, np.diag([2.0, 3.0]))
    mu = spectral_measure(lam, [1.0, 1.0])
    assert mu.atoms == ((2.0, 1.0), (3.0, 1.0))
    assert mu.mass() == pytest.approx(2.0)
    assert mu.first_moment() == pytest.approx(5.0)
    single = spectral_measure(lam, [1.0, 0.0])
    assert single.mass() == pytest.approx(1.0)
    assert single.first_moment() == pytest.approx(2.0)


def test_spectral_measure_json():
    h1 = InnerSpace.standard(2)
    mu = spectral_measure(krein_lambda(h1, np.eye(2)), [1.0, 2.0])
    doc = mu.to_json()
    assert doc[0]["eigenvalue"] == pytest.approx(1.0)
    assert mu.mass() == pytest.approx(5.0)


def test_dstar_constant_by_hand():
    assert dstar_constant(InnerSpace.standard(2), [1.0, 0.0]) == pytest.approx(1.0)
    h = InnerSpace.from_matrix(np.diag([4.0, 1.0]))
    assert dstar_constant(h, [2.0, 0.0]) == pytest.approx(1.0)


# -- the network pair ------------------------------------------------------


def test_dirac_spaces_energy_gram_is_laplacian(p3):
    h1, g2 = dirac_spaces(p3)
    np.testing.assert_allclose(h1.matrix, np.eye(3))
    np.testing.assert_allclose(g2.matrix, p3.laplacian_matrix.toarray())
    assert g2.labels == ("o", "a", "b")


def test_krein_lambda_network_is_laplacian(p3):
    h1, g2 = dirac_spaces(p3)
    lam = krein_lambda(h1, g2)
    np.testing.assert_allclose(lam.matrix, p3.laplacian_matrix.toarray(), atol=1e-12)


def test_network_kl_pair_and_closures(p3):
    k_op, l_op = network_kl(p3)
    report = verify_pair(k_op, l_op, tol=1e-10)
    assert report.is_pair
    kk, ll = krein_network_extension(k_op, l_op)
    np.testing.assert_allclose(
        kk.matrix, p3.laplacian_matrix.toarray(), atol=1e-10
    )
    # kernel-basis pairings <v_y, L*L v_x>_E: Kronecker plus a constant 1
    pairing = ll.domain.matrix @ ll.matrix
    np.testing.assert_allclose(pairing, np.eye(2) + 1.0, atol=1e-10)
    assert pair_spectrum_check(k_op, l_op)


def test_network_kl_independent_kernel_route(p3):
    k_op, l_op = network_kl(p3)
    _, ll = krein_network_extension(k_op, l_op)
    kernel_set = list(ll.domain.labels)
    reps = [v.values for v in solve_dipoles(p3, kernel_set)]
    shifted = [p3.delta(x) - p3.delta("o") for x in kernel_set]
    expect = energy_pairings(p3, reps, shifted)
    np.testing.assert_allclose(ll.domain.matrix @ ll.matrix, expect, atol=1e-10)


def test_network_kl_accepts_precomputed_kernels(p3):
    kernels = dict(zip(["a", "b"], solve_dipoles(p3, ["a", "b"])))
    k_op, l_op = network_kl(p3, kernels=kernels)
    assert verify_pair(k_op, l_op, tol=1e-10).is_pair
    from netenergy import NetworkError

    with pytest.raises(NetworkError, match="kernel not solved"):
        network_kl(p3, kernels={"a": kernels["a"]})


def test_linop_serialization():
    h = InnerSpace.standard(2, labels=("u", "v"))
    op = LinOp(domain=h, codomain=h, matrix=np.array([[1.0, 2.0], [3.0, 4.0]]))
    doc = op.to_json()
    assert doc["matrix"] == [[1.0, 2.0], [3.0, 4.0]]
    assert doc["domain_labels"] == doc["codomain_labels"] == ["u", "v"]
