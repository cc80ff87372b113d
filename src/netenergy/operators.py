"""Symmetric pairs, adjoints, and extensions in Gram coordinates.

A finite-dimensional inner-product space is a labelled basis together with
a positive-definite Gram matrix G; vectors are coefficient columns and
<u, v> = u' G v.  A linear map A between two such spaces is the matrix M
of basis-image coordinates, and its adjoint has the closed form

    A* = G1^{-1} M' G2,

which is all that is needed to verify symmetric pairs (<A phi, psi>_2 =
<phi, B psi>_1), build Friedrichs extensions through the completion-and-
inclusion route, compare the nonzero spectra of A*A and B*B, and realize
the canonical self-adjoint operator Lambda = G1^{-1} G2 of a second inner
product on the same vectors.  Each space factors its Gram once, when it is
built.

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

from .energy import GramMatrix, energy_pairings, gram
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


def _symmetric(m: np.ndarray, tol: float, what: str) -> np.ndarray:
    """The symmetric part of ``m``; raises ``what`` when ``m`` is not
    symmetric within ``tol`` relative to its scale."""
    scale = 1.0 + float(np.abs(m).max(initial=0.0))
    asym = float(np.max(np.abs(m - m.T), initial=0.0))
    if asym > tol * scale:
        raise OperatorError(f"{what}: asymmetry residual {asym:.3e}")
    return _sym(m)


@dataclass(frozen=True)
class InnerSpace:
    """Finite-dimensional inner-product space in a fixed labelled basis."""

    gram: GramMatrix

    def __post_init__(self):
        try:
            chol = sla.cho_factor(self.matrix)
        except ValueError:  # LinAlgError, or a non-finite entry
            raise OperatorError("inner-product Gram is not positive definite") from None
        object.__setattr__(self, "_chol", chol)

    @classmethod
    def from_matrix(cls, matrix, labels=None) -> "InnerSpace":
        m = np.asarray(matrix, dtype=float)
        if labels is None:
            labels = tuple(range(m.shape[0]))
        return cls(gram=GramMatrix(labels=tuple(labels), matrix=m))

    @classmethod
    def standard(cls, n: int, labels=None) -> "InnerSpace":
        return cls.from_matrix(np.eye(n), labels=labels)

    @property
    def labels(self) -> tuple:
        return self.gram.labels

    @property
    def dim(self) -> int:
        return self.gram.dim

    @property
    def matrix(self) -> np.ndarray:
        return self.gram.matrix

    def solve_gram(self, b: np.ndarray) -> np.ndarray:
        """Solve G x = b (b may be a matrix of columns)."""
        return sla.cho_solve(self._chol, np.asarray(b, dtype=float))

    def inner(self, u, v) -> float:
        return float(np.asarray(u) @ self.matrix @ np.asarray(v))

    def norm(self, u) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))

    def compatible(self, other: "InnerSpace", tol: float = 1e-10) -> bool:
        if self is other:
            return True
        if self.dim != other.dim or self.labels != other.labels:
            return False
        scale = 1.0 + float(np.abs(self.matrix).max(initial=0.0))
        return bool(np.max(np.abs(self.matrix - other.matrix)) <= tol * scale)


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
    """Outcome of a symmetric-pair verification."""

    residual: float
    tol: float
    is_pair: bool
    containment_defect: float

    def __post_init__(self):
        if self.is_pair != (self.residual <= self.tol):
            raise ValueError("is_pair must equal (residual <= tol)")


def verify_pair(a: LinOp, b: LinOp, tol: float = 1e-10) -> SymmetricPairReport:
    """Check <A e_i, f_j>_2 = <e_i, B f_j>_1 over the basis pairs.

    A must map H1 -> H2 and B map H2 -> H1 on the same two spaces.  The
    report's residual is the largest pairing mismatch; the containment
    defect additionally measures A against B* and B against A* through the
    adjoint formula (the two characterizations agree up to conditioning).
    """
    if not a.domain.compatible(b.codomain) or not a.codomain.compatible(b.domain):
        raise OperatorError("pair spaces do not match: need A: H1 -> H2, B: H2 -> H1")
    lhs = a.matrix.T @ a.codomain.matrix
    rhs = a.domain.matrix @ b.matrix
    residual = float(np.max(np.abs(lhs - rhs), initial=0.0))
    defect = max(
        float(np.max(np.abs(a.matrix - adjoint(b).matrix), initial=0.0)),
        float(np.max(np.abs(b.matrix - adjoint(a).matrix), initial=0.0)),
    )
    return SymmetricPairReport(
        residual=residual,
        tol=tol,
        is_pair=residual <= tol,
        containment_defect=defect,
    )


def _self_adjoint_form(space: InnerSpace, matrix: np.ndarray, tol: float, what: str):
    """The symmetrized form G M of an operator on ``space``; raises ``what``
    when G M is not symmetric within ``tol`` relative to its scale."""
    return _symmetric(space.matrix @ matrix, tol, what)


def _bounded_below(space: InnerSpace, form: np.ndarray, c=1.0, tol=1e-10, vectors=False):
    """Generalized eigenvalues of (form, G), ascending (and, with
    ``vectors``, the eigenvectors V with V' G V = I, as ``sla.eigh`` returns
    them); raises CoercivityError unless the smallest is at least c - tol,
    so that the form shifted by (1 - c) G is at least 1 - tol."""
    res = sla.eigh(form, space.matrix, eigvals_only=not vectors)
    low = float((res[0] if vectors else res)[0])
    if low < c - tol:
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


def friedrichs(space: InnerSpace, a: LinOp, c: float = 1.0, tol: float = 1e-10) -> LinOp:
    """Friedrichs extension of a symmetric semibounded operator.

    Requires <phi, A phi> >= c <phi, phi> (c = 1: A is coercive), checked
    once through the smallest generalized eigenvalue of the form G A, with
    slack tol.  The form is shifted by s = 1 - c times the space Gram,
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
    form = _self_adjoint_form(space, a.matrix, tol, "operator is not symmetric")
    lam = _bounded_below(space, form, c, tol)
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
        q = _symmetric(q, 1e-10, "form Gram is not symmetric")
        _, ext = _extension_from_form(space, q, _bounded_below(space, q))
        return LinOp(domain=space, codomain=space, matrix=ext)
    if direction == "operator_to_form":
        a = value
        if not (a.domain.compatible(space) and a.codomain.compatible(space)):
            raise OperatorError("operator must act on the given space")
        form = _self_adjoint_form(space, a.matrix, 1e-10, "operator is not self-adjoint")
        lam, vec = _bounded_below(space, form, vectors=True)
        # A^{1/2} = V sqrt(lam) V^{-1} with V^{-1} = V' G
        root = vec @ (np.sqrt(np.clip(lam, 0.0, None))[:, None] * (vec.T @ space.matrix))
        q = _sym(root.T @ space.matrix @ root)
        return GramMatrix(labels=space.labels, matrix=q)
    raise OperatorError(
        f"unknown direction {direction!r}, expected 'form_to_operator' or 'operator_to_form'"
    )


# -- canonical operator of a second inner product --------------------------


def krein_lambda(h1: InnerSpace, h2_gram, tol: float = 1e-10) -> LinOp:
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
    g2 = _symmetric(g2, tol, "second Gram is not symmetric")
    eig_min = float(np.linalg.eigvalsh(g2)[0])
    if eig_min < -tol * scale:
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
        if any(w < 0.0 for _, w in rows):
            raise ValueError("atom weights must be nonnegative")
        if any(l < 0.0 for l, _ in rows):
            raise ValueError("atom eigenvalues must be nonnegative")
        object.__setattr__(self, "atoms", rows)

    def mass(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def first_moment(self) -> float:
        return float(sum(l * w for l, w in self.atoms))

    def to_json(self) -> list:
        return [{"eigenvalue": l, "weight": w} for l, w in self.atoms]


def spectral_measure(lam_op: LinOp, phi, tol: float = 1e-8) -> SpectralMeasure:
    """Spectral measure of ``phi`` for a nonnegative self-adjoint operator.

    Diagonalizes in a G-orthonormal eigenbasis and records one atom
    (lambda_i, |<u_i, phi>_1|^2) per eigenvector.  Inputs that are not
    self-adjoint or not nonnegative are refused with the offending
    residual.
    """
    if not lam_op.is_endomorphism():
        raise OperatorError("spectral measure needs an endomorphism")
    space = lam_op.domain
    form = _self_adjoint_form(space, lam_op.matrix, tol, "operator is not self-adjoint")
    lam, vec = sla.eigh(form, space.matrix)
    scale = 1.0 + float(np.abs(lam).max(initial=0.0))
    if float(lam[0]) < -tol * scale:
        raise OperatorError(
            f"operator is not nonnegative: eigenvalue {float(lam[0]):.3e}"
        )
    lam = np.clip(lam, 0.0, None)
    weights = (vec.T @ (space.matrix @ np.asarray(phi, dtype=float))) ** 2
    order = np.argsort(lam, kind="stable")
    return SpectralMeasure(atoms=tuple((float(lam[i]), float(weights[i])) for i in order))


# -- the network symmetric pair --------------------------------------------


def _dirac_set(net: Network, dirac_set) -> list:
    """The given Dirac labels, each checked to be a vertex, or by default
    every non-ground vertex in table order."""
    if dirac_set is None:
        return [lbl for lbl in net.labels if net.ground is None or lbl != net.ground]
    dirac_set = list(dirac_set)
    for x in dirac_set:
        net.index(x)
    return dirac_set


def dirac_spaces(net: Network, dirac_set=None) -> tuple[InnerSpace, GramMatrix]:
    """l2 space of Dirac masses and their energy Gram on one basis.

    Returns (H1, G2): H1 is span{delta_x} with the counting-measure inner
    product (identity Gram) and G2 holds the energy pairings of the same
    Diracs, which reproduce the graph-Laplacian entries.  The default
    basis is every non-ground vertex in table order.
    """
    dirac_set = _dirac_set(net, dirac_set)
    deltas = [net.delta(x) for x in dirac_set]
    g1 = gram("l2", net, deltas, labels=dirac_set)
    g2 = gram("energy", net, deltas, labels=dirac_set)
    return InnerSpace(gram=g1), g2


def network_kl(net: Network, dirac_set=None, kernels=None) -> tuple[LinOp, LinOp]:
    """The canonical symmetric pair between l2 and the energy space.

    K maps delta_x in l2 to the energy class of the same Dirac, expressed
    in the kernel basis {v_y: y in dirac_set, y != o}; L maps v_x to
    delta_x - delta_o in l2.  ``kernels`` may supply precomputed dipoles
    as a mapping from vertex to EnergyVector (every kernel vertex must be
    present); otherwise they are solved here in one batch.  The returned
    operators always satisfy verify_pair; that postcondition is asserted.
    """
    dirac_set = _dirac_set(net, dirac_set)
    if net.origin not in dirac_set:
        raise NetworkError("dirac set must contain the origin")
    kernel_set = [x for x in dirac_set if x != net.origin]
    if not kernel_set:
        raise NetworkError("kernel basis is empty; need a vertex besides the origin")

    if kernels is None:
        kernel_vecs = solve_dipoles(net, kernel_set)
    else:
        try:
            kernel_vecs = [kernels[x] for x in kernel_set]
        except KeyError as missing:
            raise NetworkError(f"kernel not solved for vertex {missing.args[0]!r}") from None

    deltas = [net.delta(x) for x in dirac_set]
    h1 = InnerSpace(gram=gram("l2", net, deltas, labels=dirac_set))
    kernel_reps = [v.values for v in kernel_vecs]
    h2 = InnerSpace(gram=gram("energy", net, kernel_reps, labels=kernel_set))

    # K's columns: kernel-basis coordinates of each Dirac class, from the
    # energy pairings <v_y, delta_x>_E
    pair = energy_pairings(net, kernel_reps, deltas)
    k_matrix = h2.solve_gram(pair)
    k_op = LinOp(domain=h1, codomain=h2, matrix=k_matrix)

    o_pos = dirac_set.index(net.origin)
    l_matrix = np.zeros((len(dirac_set), len(kernel_set)))
    for j, x in enumerate(kernel_set):
        l_matrix[dirac_set.index(x), j] += 1.0
        l_matrix[o_pos, j] -= 1.0
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
        _self_adjoint_form(op.domain, op.matrix, 1e-10, "extension lost self-adjointness")
    return kk, ll
