"""Symmetric pairs, adjoints, and extensions in Gram coordinates.

A finite-dimensional inner-product space (:class:`InnerSpace`) is a
positive-definite :class:`~netenergy.energy.GramMatrix` G on a labelled
basis; vectors are coefficient columns and <u, v> = u' G v.  A linear map
A between two such spaces is the matrix M of basis-image coordinates, and
its adjoint has the closed form

    A* = G1^{-1} M' G2,

which is all that is needed to verify symmetric pairs (<A phi, psi>_2 =
<phi, B psi>_1), build Friedrichs extensions through the completion-and-
inclusion route, compare the nonzero spectra of A*A and B*B, and realize
the canonical self-adjoint operator Lambda = G1^{-1} G2 of a second inner
product on the same vectors.  Each space factors its Gram once, when it is
built.  Every symmetry check, of a Gram or of the form G M of an operator,
is the one rule of ``energy._symmetric``: finite entries, asymmetry within
a tolerance relative to the scale, and the symmetric part as the result.

The Friedrichs construction deliberately walks the general route (the form
space H_A, the inclusion J, its adjoint, and the inverse of JJ* obtained by
solving) rather than shortcutting to the answer, so that each postcondition
is an actual check of the calculus.  One route serves every semibounded
operator, <phi, A phi> >= c |phi|^2: the stated bound c is checked once,
against the smallest generalized eigenvalue of the form, and the form is
shifted by (1 - c) G so that its inclusion is a contraction; the coercive
case is c = 1, no shift.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .energy import GramMatrix, _symmetric, energy_pairings, gram
from .network import Network, NetworkError, label_key
from .solvers import solve_dipoles

#: Condition-number threshold past which inversions emit a warning.
COND_WARN = 1e12


class OperatorError(ValueError):
    """An operator input violated a structural precondition."""


class CoercivityError(OperatorError):
    """A quadratic form fell below the required lower bound."""


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class InnerSpace(GramMatrix):
    """Finite-dimensional inner-product space in a fixed labelled basis: a
    positive-definite Gram matrix, factored once when it is built."""

    def __post_init__(self):
        super().__post_init__()
        try:
            chol = sla.cho_factor(self.matrix, check_finite=False)
        except sla.LinAlgError:
            raise OperatorError("inner-product Gram is not positive definite") from None
        object.__setattr__(self, "_chol", chol)

    @classmethod
    def from_matrix(cls, matrix, labels=None) -> "InnerSpace":
        m = np.asarray(matrix, dtype=float)
        if labels is None:
            labels = tuple(range(m.shape[0]))
        return cls(tuple(labels), m)

    @classmethod
    def standard(cls, n: int, labels=None) -> "InnerSpace":
        return cls.from_matrix(np.eye(n), labels=labels)

    def solve_gram(self, b: np.ndarray) -> np.ndarray:
        """Solve G x = b (b may be a matrix of columns)."""
        return sla.cho_solve(self._chol, np.asarray(b, dtype=float))

    def inner(self, u, v) -> float:
        return float(np.asarray(u) @ self.matrix @ np.asarray(v))

    def norm(self, u) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))

    def compatible(self, other: "InnerSpace") -> bool:
        if self is other:
            return True
        if self.dim != other.dim or self.labels != other.labels:
            return False
        scale = 1.0 + float(np.abs(self.matrix).max(initial=0.0))
        return bool(np.max(np.abs(self.matrix - other.matrix)) <= 1e-10 * scale)


@dataclass(frozen=True)
class LinOp:
    """Linear map between inner spaces, stored as its coordinate matrix.

    Column j of ``matrix`` holds the codomain coordinates of the image of
    the j-th domain basis vector.
    """

    domain: InnerSpace
    codomain: InnerSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise OperatorError(
                f"operator matrix has shape {m.shape}, expected "
                f"({self.codomain.dim}, {self.domain.dim})"
            )
        if not np.isfinite(m).all():
            raise OperatorError("operator has a non-finite entry")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def apply(self, u) -> np.ndarray:
        return self.matrix @ np.asarray(u, dtype=float)

    def __matmul__(self, other: "LinOp") -> "LinOp":
        if not self.domain.compatible(other.codomain):
            raise OperatorError("composition spaces do not match")
        return LinOp(
            domain=other.domain,
            codomain=self.codomain,
            matrix=self.matrix @ other.matrix,
        )

    def is_endomorphism(self) -> bool:
        return self.domain.compatible(self.codomain)

    def to_json(self) -> dict:
        return {
            "domain_labels": [label_key(l) for l in self.domain.labels],
            "codomain_labels": [label_key(l) for l in self.codomain.labels],
            "matrix": self.matrix.tolist(),
        }


def adjoint(a: LinOp) -> LinOp:
    """Gram-weighted adjoint: matrix G1^{-1} M' G2, mapping codomain back.

    Satisfies <A u, v>_2 = <u, A* v>_1 for all u, v, exactly in the
    calculus and to rounding in floats.
    """
    mat = a.domain.solve_gram(a.matrix.T @ a.codomain.matrix)
    return LinOp(domain=a.codomain, codomain=a.domain, matrix=mat)


@dataclass(frozen=True)
class SymmetricPairReport:
    """Outcome of a symmetric-pair verification: the largest pairing
    mismatch and the tolerance it was held to."""

    residual: float
    tol: float

    @property
    def is_pair(self) -> bool:
        return self.residual <= self.tol


def verify_pair(a: LinOp, b: LinOp, tol: float = 1e-10) -> SymmetricPairReport:
    """Check <A e_i, f_j>_2 = <e_i, B f_j>_1 over the basis pairs.

    A must map H1 -> H2 and B map H2 -> H1 on the same two spaces.  The
    report's residual is the largest entry of M_A' G2 - G1 M_B, the
    pairing identity on every pair of basis vectors.  That residual is the
    containment test of A in B*: multiplied through by G1^{-1} the same
    matrix is the matrix of A* - B, so no adjoint needs to be formed.
    """
    if not a.domain.compatible(b.codomain) or not a.codomain.compatible(b.domain):
        raise OperatorError("pair spaces do not match: need A: H1 -> H2, B: H2 -> H1")
    lhs = a.matrix.T @ a.codomain.matrix
    rhs = a.domain.matrix @ b.matrix
    return SymmetricPairReport(
        residual=float(np.max(np.abs(lhs - rhs), initial=0.0)), tol=tol
    )


def _bounded_below(space: InnerSpace, form: np.ndarray, c=1.0, vectors=False):
    """Generalized eigenvalues of (form, G), ascending (and, with
    ``vectors``, the eigenvectors V with V' G V = I, as ``sla.eigh`` returns
    them); raises CoercivityError unless the smallest is at least c - 1e-10,
    so that the form shifted by (1 - c) G is at least 1 - 1e-10."""
    res = sla.eigh(form, space.matrix, eigvals_only=not vectors)
    low = float((res[0] if vectors else res)[0])
    if low < c - 1e-10:
        raise CoercivityError(
            f"form is not bounded below by {c!r}: smallest form eigenvalue {low:.12g}"
        )
    return res


def _spectrum_of_square(a: LinOp) -> np.ndarray:
    """Spectrum of A*A, ascending: generalized eigenvalues of (M' G2 M, G1)."""
    quad = _sym(a.matrix.T @ a.codomain.matrix @ a.matrix)
    return sla.eigh(quad, a.domain.matrix, eigvals_only=True)


def operator_norm(a: LinOp) -> float:
    """Norm of A as a map between its Gram inner products."""
    return float(np.sqrt(max(float(_spectrum_of_square(a)[-1]), 0.0)))


def pair_spectrum_check(a: LinOp, b: LinOp, tol: float = 1e-8) -> bool:
    """Nonzero spectra of A*A and B*B agree as multisets within ``tol``."""
    la = _spectrum_of_square(a)[::-1]
    lb = _spectrum_of_square(b)[::-1]
    top = max(
        float(la[0]) if la.size else 0.0,
        float(lb[0]) if lb.size else 0.0,
        0.0,
    )
    cutoff = tol * (1.0 + top)
    la = la[la > cutoff]
    lb = lb[lb > cutoff]
    m = max(la.size, lb.size)
    la = np.pad(la, (0, m - la.size))
    lb = np.pad(lb, (0, m - lb.size))
    return bool(np.all(np.abs(la - lb) <= tol * (1.0 + top)))


# -- Friedrichs extension through the inclusion map ------------------------


def _extension_from_form(space: InnerSpace, form: np.ndarray, lam: np.ndarray):
    """Self-adjoint operator of a form via the inclusion route.

    ``form`` is the Gram of the form inner product on the same basis, with
    generalized eigenvalues ``lam`` (ascending, all at least about 1, so
    the form dominates the space inner product).  Builds the form space
    H_q, the inclusion J: H_q -> H and its adjoint, and returns the
    matrices (JJ*, (JJ*)^{-1}), solving against identity columns rather
    than forming any explicit inverse.  JJ* has eigenvalues 1 / lam, so
    lam[-1] / lam[0] is its condition number in the norm of ``space``.
    """
    form_space = InnerSpace.from_matrix(form, labels=space.labels)
    j = LinOp(domain=form_space, codomain=space, matrix=np.eye(space.dim))
    jj_star = (j @ adjoint(j)).matrix
    cond = float(lam[-1] / lam[0])
    if cond > COND_WARN:
        warnings.warn(
            f"JJ* is ill conditioned (cond ~ {cond:.3e}); extension may be inaccurate",
            RuntimeWarning,
            stacklevel=3,
        )
    with warnings.catch_warnings():
        warnings.simplefilter("error", sla.LinAlgWarning)
        try:
            lu_piv = sla.lu_factor(jj_star)
        except (sla.LinAlgError, sla.LinAlgWarning) as exc:
            raise OperatorError(f"JJ* is singular: {exc}") from exc
    return jj_star, sla.lu_solve(lu_piv, np.eye(space.dim))


def friedrichs(space: InnerSpace, a: LinOp, c: float = 1.0) -> LinOp:
    """Friedrichs extension of a symmetric semibounded operator.

    Requires <phi, A phi> >= c <phi, phi> (c = 1: A is coercive), checked
    once through the smallest generalized eigenvalue of the form G A, with
    slack 1e-10.  The form is shifted by s = 1 - c times the space Gram,
    which makes it coercive, extended through the inclusion route, and the
    extension shifted back by s; any valid lower bound gives the same
    answer.  On a finite-dimensional domain the extension agrees
    with A itself; the value of the construction is that it goes through
    the form space and the inclusion adjoint, so the fixed-point identity
    JJ* (A + s) phi = phi is an actual consistency check, asserted before
    returning.
    """
    if not (a.domain.compatible(space) and a.codomain.compatible(space)):
        raise OperatorError("operator must act on the given space")
    if not np.isfinite(c):
        raise OperatorError(f"lower bound must be a finite number, got {c!r}")
    form = _symmetric(space.matrix @ a.matrix, 1e-10, OperatorError, "operator")
    lam = _bounded_below(space, form, c)
    shift = 1.0 - c
    eye = np.eye(space.dim)
    jj_star, ext = _extension_from_form(space, form + shift * space.matrix, lam + shift)
    defect = float(np.max(np.abs(jj_star @ (a.matrix + shift * eye) - eye)))
    if defect > 1e-6:
        raise OperatorError(f"extension failed the fixed-point identity: defect {defect:.3e}")
    return LinOp(domain=space, codomain=space, matrix=ext - shift * eye)


def form_operator_roundtrip(space: InnerSpace, value, direction: str):
    """Translate between closed forms bounded below by the norm and
    self-adjoint operators with spectrum >= 1.

    direction "form_to_operator": ``value`` is the symmetric form Gram q
    on the space's basis with q >= G; returns the operator A with
    q(u, v) = <u, A v>, built through the inclusion route.

    direction "operator_to_form": ``value`` is a self-adjoint LinOp with
    spectrum >= 1; returns the Gram of (u, v) -> <A^{1/2} u, A^{1/2} v>,
    computed through the operator square root so the two directions are
    independent routes.
    """
    if direction == "form_to_operator":
        q = value.matrix if isinstance(value, GramMatrix) else np.asarray(value, dtype=float)
        if q.shape != (space.dim, space.dim):
            raise OperatorError(f"form Gram has shape {q.shape}, expected square of dim {space.dim}")
        q = _symmetric(q, 1e-10, OperatorError, "form Gram")
        _, ext = _extension_from_form(space, q, _bounded_below(space, q))
        return LinOp(domain=space, codomain=space, matrix=ext)
    if direction == "operator_to_form":
        a = value
        if not (a.domain.compatible(space) and a.codomain.compatible(space)):
            raise OperatorError("operator must act on the given space")
        form = _symmetric(space.matrix @ a.matrix, 1e-10, OperatorError, "operator")
        lam, vec = _bounded_below(space, form, vectors=True)
        # A^{1/2} = V sqrt(lam) V^{-1} with V^{-1} = V' G
        root = vec @ (np.sqrt(np.clip(lam, 0.0, None))[:, None] * (vec.T @ space.matrix))
        q = _sym(root.T @ space.matrix @ root)
        return GramMatrix(labels=space.labels, matrix=q)
    raise OperatorError(
        f"unknown direction {direction!r}, expected 'form_to_operator' or 'operator_to_form'"
    )


# -- canonical operator of a second inner product --------------------------


def krein_lambda(h1: InnerSpace, h2_gram) -> LinOp:
    """Self-adjoint Lambda on H1 with <u, Lambda v>_1 = <u, v>_2.

    ``h2_gram`` is the (positive semidefinite) Gram of the second inner
    product on the same basis; Lambda = G1^{-1} G2 and the defining
    identity holds by construction, asserted before returning.
    """
    g2 = h2_gram.matrix if isinstance(h2_gram, GramMatrix) else np.asarray(h2_gram, dtype=float)
    if g2.shape != (h1.dim, h1.dim):
        raise OperatorError(
            f"second Gram has shape {g2.shape}, expected ({h1.dim}, {h1.dim})"
        )
    scale = 1.0 + float(np.abs(g2).max(initial=0.0))
    g2 = _symmetric(g2, 1e-10, OperatorError, "second Gram")
    eig_min = float(np.linalg.eigvalsh(g2)[0])
    if eig_min < -1e-10 * scale:
        raise OperatorError(
            f"second Gram is not positive semidefinite: eigenvalue {eig_min:.3e}"
        )
    lam = LinOp(domain=h1, codomain=h1, matrix=h1.solve_gram(g2))
    defect = float(np.max(np.abs(h1.matrix @ lam.matrix - g2), initial=0.0))
    if defect > 1e-8 * scale:
        raise OperatorError(f"defining identity failed: residual {defect:.3e}")
    return lam


def dstar_constant(h1: InnerSpace, pairings) -> float:
    """Least C with |<phi, h>_2| <= C |phi|_1 over the span of the basis.

    ``pairings`` is the vector b with b_i = <d_i, h>_2 for the H1 basis
    vectors d_i; the supremum is attained at the Riesz representer r
    solving G1 r = b, and C is the H1 norm of r.
    """
    b = np.asarray(pairings, dtype=float)
    if b.shape != (h1.dim,):
        raise OperatorError(f"pairing vector has shape {b.shape}, expected ({h1.dim},)")
    r = h1.solve_gram(b)
    return float(np.sqrt(max(float(b @ r), 0.0)))


@dataclass(frozen=True)
class SpectralMeasure:
    """Atomic measure mu_phi on the spectrum of a nonnegative operator.

    ``atoms`` are (eigenvalue, weight) pairs with nondecreasing
    eigenvalues and nonnegative weights; total mass is |phi|_1^2 and the
    first moment is <phi, Lambda phi>_1.
    """

    atoms: tuple

    def __post_init__(self):
        rows = tuple((float(l), float(w)) for l, w in self.atoms)
        lams = [r[0] for r in rows]
        if any(b < a for a, b in zip(lams, lams[1:])):
            raise ValueError("atom eigenvalues must be nondecreasing")
        if not all(w >= 0.0 for _, w in rows):
            raise ValueError("atom weights must be nonnegative")
        if not all(l >= 0.0 for l, _ in rows):
            raise ValueError("atom eigenvalues must be nonnegative")
        object.__setattr__(self, "atoms", rows)

    def mass(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def first_moment(self) -> float:
        return float(sum(l * w for l, w in self.atoms))

    def to_json(self) -> list:
        return [{"eigenvalue": l, "weight": w} for l, w in self.atoms]


def spectral_measure(lam_op: LinOp, phi) -> SpectralMeasure:
    """Spectral measure of ``phi`` for a nonnegative self-adjoint operator.

    Diagonalizes in a G-orthonormal eigenbasis and records one atom
    (lambda_i, |<u_i, phi>_1|^2) per eigenvector.  Inputs that are not
    self-adjoint or not nonnegative are refused with the offending
    residual.
    """
    if not lam_op.is_endomorphism():
        raise OperatorError("spectral measure needs an endomorphism")
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
        raise OperatorError("phi has a non-finite entry")
    space = lam_op.domain
    form = _symmetric(space.matrix @ lam_op.matrix, 1e-8, OperatorError, "operator")
    lam, vec = sla.eigh(form, space.matrix)
    scale = 1.0 + float(np.abs(lam).max(initial=0.0))
    if float(lam[0]) < -1e-8 * scale:
        raise OperatorError(
            f"operator is not nonnegative: eigenvalue {float(lam[0]):.3e}"
        )
    lam = np.clip(lam, 0.0, None)
    weights = (vec.T @ (space.matrix @ phi)) ** 2
    order = np.argsort(lam, kind="stable")
    return SpectralMeasure(atoms=tuple((float(lam[i]), float(weights[i])) for i in order))


# -- the network symmetric pair --------------------------------------------


def dirac_spaces(net: Network) -> tuple[InnerSpace, GramMatrix]:
    """l2 space of Dirac masses and their energy Gram on one basis.

    Returns (H1, G2) on the basis of every non-ground vertex, in table
    order: H1 is span{delta_x} with the counting-measure inner product
    (identity Gram) and G2 holds the energy pairings of the same Diracs,
    which reproduce the graph-Laplacian entries.
    """
    labels = [net.labels[i] for i in net.interior_indices()]
    deltas = [net.delta(x) for x in labels]
    return InnerSpace.standard(len(labels), labels), gram("energy", net, deltas, labels=labels)


def network_kl(net: Network) -> tuple[LinOp, LinOp]:
    """The canonical symmetric pair between l2 and the energy space.

    K maps delta_x in l2 (x any non-ground vertex) to the energy class of
    the same Dirac, expressed in the kernel basis {v_y: y != o}; L maps
    v_x to delta_x - delta_o in l2.  The kernels are solved here in one
    batch.  The returned operators always satisfy verify_pair; that
    postcondition is asserted.
    """
    labels = [net.labels[i] for i in net.interior_indices()]
    o_pos = labels.index(net.origin)
    kernel_set = labels[:o_pos] + labels[o_pos + 1:]
    if not kernel_set:
        raise NetworkError("kernel basis is empty; need a vertex besides the origin")

    kernel_reps = [v.values for v in solve_dipoles(net, kernel_set)]
    h1 = InnerSpace.standard(len(labels), labels)
    g2 = gram("energy", net, kernel_reps, labels=kernel_set)
    h2 = InnerSpace(g2.labels, g2.matrix)

    # K's columns: kernel-basis coordinates of each Dirac class, from the
    # energy pairings <v_y, delta_x>_E
    deltas = [net.delta(x) for x in labels]
    pair = energy_pairings(net, kernel_reps, deltas)
    k_matrix = h2.solve_gram(pair)
    k_op = LinOp(domain=h1, codomain=h2, matrix=k_matrix)

    # L's columns: +1 in the kernel's own Dirac row, -1 in the origin's row
    l_matrix = np.insert(np.eye(len(kernel_set)), o_pos, -1.0, axis=0)
    l_op = LinOp(domain=h2, codomain=h1, matrix=l_matrix)

    report = verify_pair(k_op, l_op, tol=1e-8)
    if not report.is_pair:
        raise OperatorError(
            f"network operators failed the pairing identity: residual {report.residual:.3e}"
        )
    return k_op, l_op


def krein_network_extension(k_op: LinOp, l_op: LinOp) -> tuple[LinOp, LinOp]:
    """Closures K*K on l2 and L*L on the energy space.

    K*K extends the vertex Laplacian (its matrix reproduces the graph
    Laplacian on the Dirac basis) and L*L is the extension acting on the
    kernel span; both are Gram-self-adjoint by construction, asserted
    before returning.
    """
    kk = adjoint(k_op) @ k_op
    ll = adjoint(l_op) @ l_op
    for op in (kk, ll):
        _symmetric(op.domain.matrix @ op.matrix, 1e-10, OperatorError, "extension")
    return kk, ll
