"""Basis-dependent machinery: dephasing, the incoherent-operation hierarchy,
ancilla dilation of strictly incoherent channels, and coherence measures.

Classification is always of the *given* Kraus representation.  A true flag
certifies membership; a false flag does not rule out another representation
of the same channel being incoherent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import BipartiteState, ChannelError, KrausChannel, pad_trace_preserving, unit_images
from .linalg import (
    CF_GAP_TOL,
    COVARIANCE_TOL,
    GRAM_SCHMIDT_CUTOFF,
    STRUCTURE_TOL,
    VALIDATION_TOL,
    DimensionError,
    InvariantError,
    above_noise_floor,
    check_tolerance,
    dagger,
    diagonal_entropy,
    eigvals_hermitian,
    entropy,
    fidelity,
    ket,
    matrix_function,
    tensor_product,
    trace_distance,
    trace_norm,
)
from .sampling import random_pure_state, random_unitary, stream


@dataclass(frozen=True)
class Basis:
    """Unitary whose columns are the incoherent basis vectors.  Functions
    taking one rotate their inputs into its coordinates once and their
    operator outputs back; ``basis=None`` means computational."""

    columns: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.columns, dtype=complex)
        object.__setattr__(self, "columns", c)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DimensionError("basis must be a square matrix of column vectors")
        if not np.isfinite(c).all():
            raise ValueError("basis has a non-finite entry")
        if np.abs(dagger(c) @ c - np.eye(c.shape[0])).max() > VALIDATION_TOL:
            raise ValueError(f"basis columns are not unitary within {VALIDATION_TOL:.0e}")

    @classmethod
    def computational(cls, dim: int) -> "Basis":
        return cls(np.eye(dim, dtype=complex))

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    def to_coords(self, m: np.ndarray) -> np.ndarray:
        """Coordinates in this basis of a matrix or of each matrix in a stack."""
        return dagger(self.columns) @ np.asarray(m, dtype=complex) @ self.columns

    def from_coords(self, m: np.ndarray) -> np.ndarray:
        """Inverse of ``to_coords``."""
        return self.columns @ np.asarray(m, dtype=complex) @ dagger(self.columns)

    def to_coords_a(self, rho: BipartiteState) -> BipartiteState:
        """``to_coords`` on side A of a bipartite state."""
        u = tensor_product(self.columns, np.eye(rho.dim_b))
        return BipartiteState._built(dagger(u) @ rho.state @ u, rho.dim_a, rho.dim_b)

    def from_coords_a(self, rho: BipartiteState) -> BipartiteState:
        """Inverse of ``to_coords_a``."""
        u = tensor_product(self.columns, np.eye(rho.dim_b))
        return BipartiteState._built(u @ rho.state @ dagger(u), rho.dim_a, rho.dim_b)


def dephase(rho: np.ndarray, basis: Basis | None = None) -> np.ndarray:
    """Erase off-diagonal elements in the incoherent basis."""
    rho = np.asarray(rho, dtype=complex)
    if basis is None:
        return np.diag(np.diag(rho))
    return basis.from_coords(np.diag(np.diag(basis.to_coords(rho))))


@dataclass(frozen=True)
class KrausSymbolicForm:
    """Structure K = sum_i c_i |f(i)><i| read off a (near-)incoherent operator.

    ``target`` maps each column to its single significant row, or -1 for a
    zero column.  For SI operators the completed permutation fills the zero
    columns with the unused rows in lexicographic order.
    """

    target: tuple[int, ...]
    coefficients: tuple[complex, ...]
    zero_columns: tuple[bool, ...]
    permutation: tuple[int, ...] | None

    incoherent: bool = False
    strictly_incoherent: bool = False
    genuinely_incoherent: bool = False
    violation: float = 0.0


def classify_kraus(k: np.ndarray, basis: Basis | None = None, tol: float = STRUCTURE_TOL) -> KrausSymbolicForm:
    """Classify one Kraus operator as incoherent / SI / GI in the basis.

    The significance threshold is ``tol`` relative to the largest entry; a
    tolerance that is not finite or is negative raises ValueError.
    Incoherent: at most one significant entry per column.  SI: additionally
    at most one per row (subpermutation pattern).  GI: diagonal.
    """
    check_tolerance(tol)
    k = np.asarray(k, dtype=complex) if basis is None else basis.to_coords(k)
    if k.shape[0] != k.shape[1]:
        raise DimensionError("classification needs a square Kraus operator")
    d = k.shape[0]
    mag = np.abs(k)
    scale = float(mag.max())
    if scale == 0.0:
        zeros = (True,) * d
        return KrausSymbolicForm(
            target=(-1,) * d,
            coefficients=(0j,) * d,
            zero_columns=zeros,
            permutation=tuple(range(d)),
            incoherent=True,
            strictly_incoherent=True,
            genuinely_incoherent=True,
        )
    cutoff = tol * scale

    target = []
    coeffs = []
    zero_cols = []
    col_violation = 0.0
    for j in range(d):
        col = mag[:, j]
        top = int(np.argmax(col))
        second = float(np.partition(col, -2)[-2]) if d > 1 else 0.0
        col_violation = max(col_violation, second)
        if col[top] <= cutoff:
            target.append(-1)
            coeffs.append(0j)
            zero_cols.append(True)
        else:
            target.append(top)
            coeffs.append(complex(k[top, j]))
            zero_cols.append(False)
    incoherent = col_violation <= cutoff

    # SI needs the significant pattern to be a subpermutation: no row hit twice.
    row_hits = [t for t, z in zip(target, zero_cols) if not z]
    subpermutation = incoherent and len(set(row_hits)) == len(row_hits)
    row_violation = float(np.sort(mag, axis=1)[:, -2].max()) if d > 1 else 0.0
    strictly = incoherent and subpermutation and row_violation <= cutoff

    diag_violation = float(np.max(mag - np.diag(np.diag(mag))))
    genuinely = diag_violation <= cutoff

    permutation = None
    if strictly:
        used = set(row_hits)
        free_rows = [i for i in range(d) if i not in used]
        perm = []
        it = iter(free_rows)
        for t, z in zip(target, zero_cols):
            perm.append(next(it) if z else t)
        permutation = tuple(perm)

    violation = max(col_violation, row_violation if not strictly else 0.0) / scale
    return KrausSymbolicForm(
        target=tuple(target),
        coefficients=tuple(coeffs),
        zero_columns=tuple(zero_cols),
        permutation=permutation,
        incoherent=incoherent,
        strictly_incoherent=strictly,
        genuinely_incoherent=genuinely and strictly,
        violation=violation,
    )


@dataclass(frozen=True)
class ClassificationReport:
    incoherent: bool
    strictly_incoherent: bool
    genuinely_incoherent: bool
    covariant: bool | None
    commutes_with_dephasing: bool
    kraus_forms: tuple[KrausSymbolicForm, ...]
    max_violation: float
    dephasing_deviation: float

    def to_dict(self) -> dict:
        return {
            "incoherent": self.incoherent,
            "strictly_incoherent": self.strictly_incoherent,
            "genuinely_incoherent": self.genuinely_incoherent,
            "covariant": self.covariant,
            "commutes_with_dephasing": self.commutes_with_dephasing,
            "max_violation": self.max_violation,
            "dephasing_deviation": self.dephasing_deviation,
        }


def _kraus_covariant(k: np.ndarray, eigenvalues: np.ndarray, tol: float) -> bool:
    """All significant entries (i, j) must share one shift a_i - a_j."""
    mag = np.abs(k)
    scale = float(mag.max())
    if scale == 0.0:
        return True
    shifts = [
        eigenvalues[i] - eigenvalues[j]
        for i in range(k.shape[0])
        for j in range(k.shape[1])
        if mag[i, j] > STRUCTURE_TOL * scale
    ]
    if not shifts:
        return True
    return max(shifts) - min(shifts) <= tol


def dephasing_commutant_deviation(channel: KrausChannel, basis: Basis | None = None) -> float:
    """max |Phi(E(X)) - E(Phi(X))| over the matrix units X = |b_i><b_j| of the
    basis, entrywise in the original coordinates.

    Phi(X) is X for i = j and zero otherwise, so the i = j terms measure how
    far E(|b_i><b_i|) is from basis-diagonal and the i != j terms how large
    the basis-diagonal part of E(|b_i><b_j|) is.
    """
    work = channel if basis is None else KrausChannel._built(basis.to_coords(channel.kraus))
    images = unit_images(work)
    dev = images * np.eye(work.dim_out)
    idx = np.arange(work.dim_in)
    dev[idx, idx] -= images[idx, idx]
    if basis is not None:
        dev = basis.from_coords(dev)
    return float(np.abs(dev).max())


def classify_channel(
    channel: KrausChannel,
    basis: Basis | None = None,
    observable: np.ndarray | None = None,
    tol: float = STRUCTURE_TOL,
) -> ClassificationReport:
    """Classify every Kraus operator and aggregate into the hierarchy flags.

    ``observable`` is an optional list of real eigenvalues attached to the
    basis states; when given, the covariance flag tests whether each Kraus
    operator shifts all basis states by one fixed eigenvalue difference.
    A tolerance that is not finite or is negative raises ValueError.
    """
    if channel.dim_in != channel.dim_out:
        raise DimensionError("classification needs a square channel")
    work = channel if basis is None else KrausChannel._built(basis.to_coords(channel.kraus))
    forms = tuple(classify_kraus(k, None, tol) for k in work.kraus)
    incoherent = all(f.incoherent for f in forms)
    strictly = all(f.strictly_incoherent for f in forms)
    genuinely = all(f.genuinely_incoherent for f in forms)

    covariant: bool | None = None
    if observable is not None:
        a = np.asarray(observable, dtype=float)
        covariant = all(_kraus_covariant(k, a, COVARIANCE_TOL) for k in work.kraus)

    deviation = dephasing_commutant_deviation(channel, basis)
    commutes = deviation <= tol

    report = ClassificationReport(
        incoherent=incoherent,
        strictly_incoherent=strictly,
        genuinely_incoherent=genuinely,
        covariant=covariant,
        commutes_with_dephasing=commutes,
        kraus_forms=forms,
        max_violation=max(f.violation for f in forms),
        dephasing_deviation=deviation,
    )
    _assert_hierarchy(report, observable)
    return report


def _assert_hierarchy(report: ClassificationReport, observable) -> None:
    if report.genuinely_incoherent and not report.strictly_incoherent:
        raise InvariantError("hierarchy violated: GI without SI")
    if report.strictly_incoherent and not report.incoherent:
        raise InvariantError("hierarchy violated: SI without incoherent")
    if report.covariant and observable is not None:
        a = np.asarray(observable, dtype=float)
        nondegenerate = np.min(np.abs(np.diff(np.sort(a)))) > COVARIANCE_TOL if len(a) > 1 else True
        if nondegenerate and not report.strictly_incoherent:
            raise InvariantError("hierarchy violated: covariant (nondegenerate) without SI")


@dataclass(frozen=True)
class DilationSpec:
    """Ancilla realization of an SI channel: controlled unitaries on the
    ancilla, a measurement basis, and conditional permutation unitaries."""

    control_unitaries: tuple[np.ndarray, ...]
    ancilla_dim: int
    measurement_basis: np.ndarray
    conditional_unitaries: tuple[np.ndarray, ...]
    basis: Basis


def dilation_construct(channel: KrausChannel, basis: Basis | None = None) -> DilationSpec:
    """Build the ancilla dilation of a strictly incoherent channel.

    The channel is first padded to trace preservation with a diagonal Kraus
    operator if needed; with k Kraus operators the ancilla has dimension
    k + 1 and U_i's first column carries the coefficients (c^mu_i, r_i).
    """
    report = classify_channel(channel, basis)
    if not report.strictly_incoherent:
        raise ChannelError("dilation requires a strictly incoherent channel")
    padded = pad_trace_preserving(channel)
    if len(padded) > len(channel):
        report = classify_channel(padded, basis)
        if not report.strictly_incoherent:
            raise ChannelError("trace-preserving completion broke SI structure")

    d = channel.dim_in
    k = len(padded)
    anc = k + 1
    coeff = np.array([form.coefficients for form in report.kraus_forms], dtype=complex)
    perms = [form.permutation for form in report.kraus_forms]

    controls = []
    for i in range(d):
        first = np.zeros(anc, dtype=complex)
        first[:k] = coeff[:, i]
        residual = 1.0 - float(np.sum(np.abs(first) ** 2))
        first[k] = np.sqrt(max(0.0, residual))
        controls.append(_complete_unitary(first))

    conditionals = []
    for perm in perms:
        v = np.zeros((d, d), dtype=complex)
        for i in range(d):
            v[perm[i], i] = 1.0
        conditionals.append(v)

    return DilationSpec(
        control_unitaries=tuple(controls),
        ancilla_dim=anc,
        measurement_basis=np.eye(anc, dtype=complex),
        conditional_unitaries=tuple(conditionals),
        basis=basis if basis is not None else Basis.computational(d),
    )


def _complete_unitary(first_column: np.ndarray) -> np.ndarray:
    """Deterministic unitary completion of a unit vector by Gram-Schmidt
    against the computational basis."""
    n = first_column.shape[0]
    cols = [first_column / np.linalg.norm(first_column)]
    for j in range(n):
        v = ket(j, n)
        for c in cols:
            v = v - c * np.vdot(c, v)
        norm = np.linalg.norm(v)
        if norm > GRAM_SCHMIDT_CUTOFF:
            cols.append(v / norm)
        if len(cols) == n:
            break
    return np.stack(cols, axis=1)


def dilation_apply(spec: DilationSpec, rho: np.ndarray) -> list[np.ndarray]:
    """Run the dilation circuit; returns the unnormalized outcome states."""
    b = spec.basis
    d, anc = b.dim, spec.ancilla_dim
    # System x ancilla as a (d, anc, d, anc) tensor: the ancilla starts in |0>,
    # and the controlled unitary sum_i |i><i| x U_i is block diagonal.
    start = np.zeros((d, anc, d, anc), dtype=complex)
    start[:, 0, :, 0] = b.to_coords(rho)
    u = np.einsum("ij,iab->iajb", np.eye(d), np.array(spec.control_unitaries)).reshape(d * anc, d * anc)
    total = (u @ start.reshape(d * anc, d * anc) @ dagger(u)).reshape(d, anc, d, anc)
    phi = spec.measurement_basis[:, : len(spec.conditional_unitaries)]
    selected = np.einsum("am,iajb,bm->mij", phi.conj(), total, phi)
    v = np.array(spec.conditional_unitaries)
    return list(b.from_coords(v @ selected @ dagger(v)))


def dilation_verify(spec: DilationSpec, channel: KrausChannel, n_states: int = 20, seed: int = 0) -> float:
    """Max trace-norm deviation between dilation outcomes and K rho K^dag."""
    padded = pad_trace_preserving(channel)
    d = channel.dim_in
    worst = 0.0
    rng = stream(seed, 71, d)
    for _ in range(n_states):
        psi = random_pure_state(d, rng)
        rho = np.outer(psi, psi.conj())
        outcomes = dilation_apply(spec, rho)
        for mu, k in enumerate(padded.kraus):
            expect = k @ rho @ dagger(k)
            worst = max(worst, trace_norm(outcomes[mu] - expect))
    return worst


def rel_ent_coherence(rho: np.ndarray, basis: Basis | None = None) -> float:
    """Relative entropy of coherence S(Phi(rho)) - S(rho), in bits; S(Phi(rho))
    from the diagonal, without an eigensolve."""
    r = np.asarray(rho, dtype=complex) if basis is None else basis.to_coords(rho)
    return diagonal_entropy(r) - entropy(r)


CF_MAX_ITER = 5000


def fidelity_coherence_report(rho: np.ndarray, basis: Basis | None = None) -> dict:
    """Fidelity measure of coherence, min over incoherent sigma of 1 - F, with
    a certificate.

    F(rho, diag w) = ||diag(w)^{1/2} sqrt(rho)||_1 is concave in the weights
    w, so the KKT fixed point w_i <- w_i dF_i / sum_j w_j dF_j, started at the
    dephased diagonal, climbs to the maximum.  With sigma_k, v_k the singular
    values and right singular vectors of diag(w)^{1/2} sqrt(rho),
    dF_i = 1/2 sum_k |<i|sqrt(rho)|v_k>|^2 / sigma_k over the sigma_k^2 above
    the fidelity's noise floor.  The Frank-Wolfe gap max_i dF_i - sum_i w_i dF_i
    bounds F* - F(w), so the true C_f lies in ``[lower_bound, value]``.  The
    vertices w = e_i, where F = sqrt(rho_ii), are candidates too.  For a state
    of rank 1 the best vertex is the optimum, 1 - max_i sqrt(rho_ii), and it is
    returned at once with a zero gap.

    Returns ``value`` (the best 1 - F found), ``lower_bound``, ``gap``,
    ``iterations`` and ``converged`` (gap <= CF_GAP_TOL within the iteration
    cap).
    """
    r = np.asarray(rho, dtype=complex) if basis is None else basis.to_coords(rho)
    # Zero populations come out of a basis change as +-1e-17, and states
    # within the validation tolerance may have slightly negative ones.
    diag = np.clip(np.real(np.diag(r)), 0.0, None)
    w = diag / np.sum(diag)
    best = float(np.sqrt(np.max(diag)))
    bound = np.inf
    iterations = 0
    if np.count_nonzero(above_noise_floor(eigvals_hermitian(r))) == 1:
        # Rank 1: F(w) = (sum_i w_i rho_ii)^{1/2} peaks at the best vertex.
        bound = best
    else:
        root = matrix_function(r, "sqrt")
        while True:
            _, sv, vh = np.linalg.svd(np.sqrt(w)[:, None] * root)
            keep = above_noise_floor(sv**2)
            grad = 0.5 * (np.abs(root @ dagger(vh[keep])) ** 2) @ (1.0 / sv[keep])
            f = float(np.sum(sv))
            bound = min(bound, f + float(np.max(grad) - w @ grad))
            best = max(best, f)
            if bound - best <= CF_GAP_TOL or iterations == CF_MAX_ITER:
                break
            w = w * grad
            w = w / np.sum(w)
            iterations += 1
    value = max(0.0, 1.0 - best)
    gap = max(0.0, bound - best)
    return {
        "value": value,
        "lower_bound": max(0.0, value - gap),
        "gap": gap,
        "iterations": iterations,
        "converged": gap <= CF_GAP_TOL,
    }


def fidelity_coherence(
    rho: np.ndarray,
    basis: Basis | None = None,
    restarts: int = 20,
    seed: int = 0,
) -> float:
    """Fidelity measure of coherence, the ``value`` of
    ``fidelity_coherence_report``: an upper bound on min over incoherent
    sigma of 1 - F(rho, sigma), certified to lie within its reported gap
    (<= CF_GAP_TOL when converged) of the true minimum.

    ``restarts`` and ``seed`` are accepted and unused: the problem is concave
    in the diagonal weights, so one deterministic start suffices.
    """
    return fidelity_coherence_report(rho, basis)["value"]


def coherence_measures(rho: np.ndarray, basis: Basis | None = None) -> dict:
    """All single-system coherence measures: relative entropy C, the dephased
    distances C'_tr and C'_f, and the optimized fidelity measure C_f."""
    r = np.asarray(rho, dtype=complex) if basis is None else basis.to_coords(rho)
    phi = dephase(r)
    return {
        "C": rel_ent_coherence(r),
        "C_tr": trace_distance(r, phi),
        "C_f_dephased": 1.0 - min(1.0, fidelity(r, phi)),
        "C_f": fidelity_coherence(r),
    }


def random_si_channel(
    d: int, n_kraus: int, seed: int = 0, basis: Basis | None = None, index: int = 0
) -> KrausChannel:
    """Trace-preserving strictly incoherent channel: uniform permutations and
    per-column normalized complex coefficients."""
    if d < 2 or n_kraus < 1:
        raise ValueError("need d >= 2 and n_kraus >= 1")
    rng = stream(seed, 23, d, n_kraus, index)
    coeff = rng.normal(size=(n_kraus, d)) + 1j * rng.normal(size=(n_kraus, d))
    coeff /= np.linalg.norm(coeff, axis=0, keepdims=True)
    ops = np.zeros((n_kraus, d, d), dtype=complex)
    for mu in range(n_kraus):
        ops[mu, rng.permutation(d), np.arange(d)] = coeff[mu]
    return KrausChannel._built(ops if basis is None else basis.from_coords(ops))


def random_gi_channel(d: int, n_kraus: int, seed: int = 0, index: int = 0) -> KrausChannel:
    """Trace-preserving genuinely incoherent channel (diagonal Kraus set)."""
    rng = stream(seed, 29, d, n_kraus, index)
    coeff = rng.normal(size=(n_kraus, d)) + 1j * rng.normal(size=(n_kraus, d))
    coeff /= np.linalg.norm(coeff, axis=0, keepdims=True)
    return KrausChannel._built(tuple(np.diag(coeff[mu]) for mu in range(n_kraus)))


def random_incoherent_not_si_channel(d: int, seed: int = 0, index: int = 0) -> KrausChannel:
    """Incoherent channel that measures a coherent basis on one 2d subspace.

    Two rank-one Kraus operators |i><u| and |j><v| with {u, v} a rotated
    basis of span{|i>, |j>}, completed by the projectors onto the rest.
    The rotation is resampled until all overlaps are well away from zero,
    which guarantees a dephasing-commutation violation of useful size.
    """
    rng = stream(seed, 31, d, index)
    i, j = sorted(rng.choice(d, size=2, replace=False))
    while True:
        u2 = random_unitary(2, rng)
        if np.min(np.abs(u2)) > 0.25:
            break
    u = np.zeros(d, dtype=complex)
    v = np.zeros(d, dtype=complex)
    u[[i, j]] = u2[:, 0]
    v[[i, j]] = u2[:, 1]
    ops = [np.outer(ket(i, d), u.conj()), np.outer(ket(j, d), v.conj())]
    for m in range(d):
        if m not in (i, j):
            ops.append(np.outer(ket(m, d), ket(m, d)))
    return KrausChannel._built(tuple(ops))
