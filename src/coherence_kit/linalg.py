"""Dense complex linear algebra, entropic functionals, and the tolerance table.

All quantum objects are plain ``numpy`` arrays of ``complex``.  Logarithms
are base 2 throughout, so every entropy-like quantity is in bits.

Tolerances.  Every tolerance the library decides with is one constant below,
imported from here by the other modules.  "<=" and ">" say on which side a
value exactly at the tolerance falls.

=====================  ======  =====================================================================
Name                   Value   Decision
=====================  ======  =====================================================================
VALIDATION_TOL         1e-10   Valid input: a density matrix with max|rho - rho^dag|, |tr rho - 1|
                               and -lambda_min <= it; a Kraus set with lambda_max(sum K^dag K - I)
                               <= it, trace preserving (nothing to pad) when max|sum K^dag K - I|
                               <= it; a basis with max|C^dag C - I| <= it.
SPECTRAL_TOL           1e-8    The eigensolver accepts max|M - M^dag| <= it; ``matrix_function``
                               rejects lambda_min < -it.
SUPPORT_CUTOFF         1e-12   An eigenvalue <= it is kernel: dropped from entropies, 0 under log2
                               and inv_sqrt; in recovery the support of rho and the tangent floor.
LEAK_TOL               1e-10   Relative entropy is inf when rho's weight on sigma's kernel is > it.
NOISE_FLOOR            64 eps  An eigenvalue <= it * max(1, lambda_max) is zero in the fidelity;
                               also the floor and rounding slack of the recovery certificate; a
                               barrier step that moves no entry of omega by > it ends the path.
NEGLIGIBLE_P           1e-12   A branch or block of probability <= it is dropped; a C_f weight <= it
                               is at the floor of the simplex.
STRUCTURE_TOL          1e-8    A Kraus entry is significant when > it * the largest; a channel
                               commutes with dephasing (so has no J witness) when its deviation
                               is <= it.
COVARIANCE_TOL         1e-8    Covariant when the shifts a_i - a_j spread by <= it; an observable
                               is nondegenerate when its closest levels differ by > it.
TIE_RTOL               1e-12   J-witness entries within this relative distance of the largest tie.
GRAM_SCHMIDT_CUTOFF    1e-10   Unitary completion drops a candidate of residual norm <= it.
CP_SLACK               1e-12   ``depolarizing_channel`` accepts p up to it outside ``p_range``.
DEPOL_TOL              1e-8    Default tol: depolarizing and isotropic fits pass with a residual
                               <= it (``is_unital``: < it); the falsifier needs a deviation > it.
PHASE_ANCHOR_TOL       1e-8    ``isotropic_decompose`` fixes the phase on the first entry > it.
ISOTROPIC_ACTION_TOL   1e-7    ``isotropic_decompose`` accepts an action residual <= max(tol, it).
ISOTROPIC_UNITARY_TOL  1e-6    ``isotropic_decompose`` rejects a polar factor off unitary by > it.
CF_GAP_TOL             1e-10   C_f converged: its certified gap is <= it; a C_f Newton step whose
                               predicted gain is <= it is taken untested.
RECOVERY_GAP_TOL       1e-8    Recoverability converged: value - lower_bound is <= it.
EQUAL_STATE_TOL        1e-7    Zero-discord split: A indices link through a B-block entry > it;
                               success when the residual is <= it.
NEGATIVE_DISCORD_TOL   1e-9    Invariant: delta < -it raises.
DISCORD_IDENTITY_TOL   1e-6    Invariant: |(I - J) - (C(B|A) - C(A))| > it raises.
MONOTONE_SLACK         1e-8    The ensemble trial passes when lhs <= rhs + it.
MEMORY_SLACK           1e-4    The memory trial passes when after <= before + it.
=====================  ======  =====================================================================
"""

from __future__ import annotations

import math

import numpy as np

VALIDATION_TOL = 1e-10
SPECTRAL_TOL = 1e-8
SUPPORT_CUTOFF = 1e-12
LEAK_TOL = 1e-10
NOISE_FLOOR = 64.0 * np.finfo(float).eps
NEGLIGIBLE_P = 1e-12
STRUCTURE_TOL = 1e-8
COVARIANCE_TOL = 1e-8
TIE_RTOL = 1e-12
GRAM_SCHMIDT_CUTOFF = 1e-10
CP_SLACK = 1e-12
DEPOL_TOL = 1e-8
PHASE_ANCHOR_TOL = 1e-8
ISOTROPIC_ACTION_TOL = 1e-7
ISOTROPIC_UNITARY_TOL = 1e-6
CF_GAP_TOL = 1e-10
RECOVERY_GAP_TOL = 1e-8
EQUAL_STATE_TOL = 1e-7
NEGATIVE_DISCORD_TOL = 1e-9
DISCORD_IDENTITY_TOL = 1e-6
MONOTONE_SLACK = 1e-8
MEMORY_SLACK = 1e-4


class DimensionError(ValueError):
    """Operands have incompatible or non-factorizable dimensions."""


class NotHermitianError(ValueError):
    """A matrix required to be Hermitian is not, within tolerance."""


class InvalidStateError(ValueError):
    """A matrix fails the density-matrix invariants."""


class InvariantError(AssertionError):
    """An internal identity of the numerics failed: a defect or a numerical
    breakdown, never bad input."""


def check_tolerance(tol: float) -> None:
    """Raise ValueError for a caller's tolerance that is not finite or is
    negative: NaN or inf would turn every comparison into a confident
    wrong answer."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().mT


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def ket(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def assert_hermitian(m: np.ndarray, tol: float = SPECTRAL_TOL) -> None:
    """Raise NotHermitianError unless the matrix, or each matrix of a stack
    (..., n, n), is finite with max |M - M^dag| <= tol; on a stack the
    message names the index of the first offending matrix."""
    finite = np.isfinite(m)
    if not finite.all():
        raise NotHermitianError(f"matrix{_first_in_stack(~finite)} has a non-finite entry")
    gap = np.abs(m - dagger(m))
    dev = np.max(gap)
    if dev > tol:
        raise NotHermitianError(f"matrix{_first_in_stack(gap > tol)}: max |M - M^dag| = {dev:.3e} > {tol:.1e}")


def _first_in_stack(bad: np.ndarray) -> str:
    """" at stack index k" for the first matrix of a stack with a True entry
    in ``bad``; "" for one matrix."""
    k = tuple(np.argwhere(bad)[0, :-2].tolist())
    return f" at stack index {k[0] if len(k) == 1 else k}" if k else ""


def validate_density_matrix(rho: np.ndarray, tol: float = VALIDATION_TOL) -> np.ndarray:
    """Check Hermiticity, positivity and unit trace of a density matrix.

    Returns the spectrum the positivity check computed, ``eigvals_hermitian``
    of the matrix (ascending), so that a caller can take its entropy with
    ``spectrum_entropy`` instead of solving it again.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"not a square matrix: shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise InvalidStateError("density matrix has a non-finite entry")
    dev = np.max(np.abs(rho - dagger(rho)))
    if dev > tol:
        raise InvalidStateError(f"not Hermitian: deviation {dev:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > tol:
        raise InvalidStateError(f"trace {tr} not 1 within {tol:.1e}")
    lam = eigvals_hermitian(rho)
    if lam[0] < -VALIDATION_TOL:
        raise InvalidStateError(f"negative eigenvalue {lam[0]:.3e}")
    return lam


def is_density_matrix(rho: np.ndarray, tol: float = VALIDATION_TOL) -> bool:
    try:
        validate_density_matrix(rho, tol)
    except InvalidStateError:
        return False
    return True


def partial_trace(mat: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one side of a bipartite operator, or of each operator of a
    stack (..., n, n).

    ``keep`` selects the surviving subsystem: "A" traces out B and
    vice versa.  ``dims = (d_a, d_b)`` must factor the matrix dimension.
    """
    mat = np.asarray(mat, dtype=complex)
    da, db = dims
    if mat.shape[-2:] != (da * db, da * db):
        raise DimensionError(f"dims {dims} do not factor shape {mat.shape}")
    t = mat.reshape(*mat.shape[:-2], da, db, da, db)
    if keep == "A":
        return np.einsum("...ajbj->...ab", t)
    if keep == "B":
        return np.einsum("...jajb->...ab", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def eig_hermitian(m: np.ndarray, tol: float = SPECTRAL_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a complex Hermitian matrix (LAPACK ``eigh``).

    Raises NotHermitianError when ``max |M - M^dag| > tol``; otherwise the
    Hermitian part ``(M + M^dag)/2`` is decomposed.  Returns eigenvalues in
    descending order and the matching unitary of eigenvector columns.
    """
    m = np.asarray(m, dtype=complex)
    assert_hermitian(m, tol)
    lam, v = np.linalg.eigh((m + dagger(m)) / 2.0)
    return lam[::-1], v[:, ::-1]


def eigvals_hermitian(m: np.ndarray, tol: float = SPECTRAL_TOL) -> np.ndarray:
    """Eigenvalues only, in ascending order (LAPACK ``eigvalsh``), of a
    matrix or of each matrix of a stack (..., n, n).

    Same Hermiticity check and symmetrisation as eig_hermitian.
    """
    m = np.asarray(m, dtype=complex)
    assert_hermitian(m, tol)
    return np.linalg.eigvalsh((m + dagger(m)) / 2.0)


def matrix_function(m: np.ndarray, kind: str) -> np.ndarray:
    """Apply sqrt, log2 or inv_sqrt to a Hermitian PSD matrix spectrally.

    For log2 and inv_sqrt the function acts on the support only
    (eigenvalues above SUPPORT_CUTOFF); the kernel is mapped to zero.
    """
    lam, v = eig_hermitian(m)
    if lam[-1] < -SPECTRAL_TOL:
        raise ValueError(f"matrix not PSD: eigenvalue {lam[-1]:.3e}")
    lam = np.clip(lam, 0.0, None)
    out = np.zeros_like(lam)
    support = lam > SUPPORT_CUTOFF
    if kind == "sqrt":
        out = np.sqrt(lam)
    elif kind == "log2":
        out[support] = np.log2(lam[support])
    elif kind == "inv_sqrt":
        out[support] = 1.0 / np.sqrt(lam[support])
    else:
        raise ValueError(f"unknown matrix function {kind!r}")
    return (v * out) @ dagger(v)


def spectrum_entropy(lam: np.ndarray) -> float:
    """Shannon entropy in bits of an ascending spectrum, with 0 log 0 = 0:
    the von Neumann entropy of any matrix with that spectrum."""
    lam = lam[lam > SUPPORT_CUTOFF]
    return float(-np.sum(lam * np.log2(lam)))


def spectrum_entropies(lam: np.ndarray) -> np.ndarray:
    """``spectrum_entropy`` of each row of a stack (s, n) of ascending
    spectra, bit for bit: a row sum with 0 in place of each kernel term.
    The kernel is a prefix of the row, so for n < 8, where numpy's pairwise
    sum adds in order, the zeros change no partial sum.  From n = 8 on it
    adds in eight interleaved partial sums, which the zeros would regroup,
    so there a stack with any kernel goes row by row."""
    keep = lam > SUPPORT_CUTOFF
    if lam.shape[-1] >= 8 and not keep.all():
        return np.array([spectrum_entropy(row) for row in lam])
    x = np.where(keep, lam, 1.0)
    return -np.sum(x * np.log2(x), axis=-1)


def entropy(rho: np.ndarray) -> float:
    """von Neumann entropy in bits, with 0 log 0 = 0."""
    return spectrum_entropy(eigvals_hermitian(rho))


def diagonal_entropy(m: np.ndarray) -> float:
    """``entropy`` of the diagonal part of m, without an eigensolve: the
    sorted real diagonal is the spectrum ``eigvals_hermitian`` returns for a
    diagonal matrix, bit for bit."""
    return spectrum_entropy(np.sort(np.real(np.diag(m))))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Quantum relative entropy S(rho || sigma) in bits.

    Returns ``math.inf`` when the support of rho leaks into the kernel
    of sigma by more than LEAK_TOL.
    """
    cross = _cross_entropy(rho, sigma)
    return cross if cross == math.inf else -entropy(rho) + cross


def _cross_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """-tr(rho log2 sigma) in bits, or ``math.inf`` as ``relative_entropy`` returns it."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise DimensionError("relative entropy needs equal dimensions")
    slam, svec = eig_hermitian(sigma)
    kernel = slam <= SUPPORT_CUTOFF
    if np.any(kernel):
        pk = svec[:, kernel]
        overlap = float(np.real(np.trace(dagger(pk) @ rho @ pk)))
        if overlap > LEAK_TOL:
            return math.inf
    support = ~kernel
    diag_in_sigma = np.real(np.einsum("ia,ij,ja->a", svec.conj(), rho, svec))
    return -float(np.sum(diag_in_sigma[support] * np.log2(slam[support])))


def trace_norm(m: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix via its eigenvalues."""
    return float(np.sum(np.abs(eigvals_hermitian(m))))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 0.5 * trace_norm(np.asarray(rho) - np.asarray(sigma))


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho))."""
    if np.asarray(rho).shape != np.asarray(sigma).shape:
        raise DimensionError("fidelity needs equal dimensions")
    return root_fidelity(matrix_function(rho, "sqrt"), sigma)


def root_fidelity(root: np.ndarray, sigma: np.ndarray) -> float:
    """``fidelity`` given root = ``matrix_function(rho, "sqrt")``."""
    inner = root @ np.asarray(sigma, dtype=complex) @ root
    lam = eigvals_hermitian((inner + dagger(inner)) / 2.0)
    return float(np.sum(np.sqrt(lam[above_noise_floor(lam)])))


def above_noise_floor(lam: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues of sqrt(rho) sigma sqrt(rho) that count.

    Eigenvalues at the float noise floor of the spectrum are zero: their
    square roots (~1e-8) would otherwise inflate the fidelity.
    """
    return lam > NOISE_FLOOR * max(1.0, float(lam.max()))


METRICS = ("trace", "one_minus_fidelity", "rel_ent")


def distance(metric: str, rho: np.ndarray, sigma: np.ndarray) -> float:
    """Contractive distance between states: trace, 1-fidelity or rel. entropy."""
    if metric == "trace":
        return trace_distance(rho, sigma)
    if metric == "one_minus_fidelity":
        return 1.0 - min(1.0, fidelity(rho, sigma))
    if metric == "rel_ent":
        return relative_entropy(rho, sigma)
    raise ValueError(f"unknown metric {metric!r}")


def dephase_subsystem(mat: np.ndarray, dims: tuple[int, ...], which: int) -> np.ndarray:
    """Zero every element whose bra/ket indices differ on subsystem ``which``,
    in a matrix or in each matrix of a stack (..., n, n).

    The dephasing basis is the computational basis of that tensor factor.
    """
    mat = np.asarray(mat, dtype=complex)
    total = int(np.prod(dims))
    if mat.shape[-2:] != (total, total):
        raise DimensionError(f"dims {dims} do not factor shape {mat.shape}")
    n = len(dims)
    shape = [1] * (2 * n)
    shape[which] = shape[n + which] = dims[which]
    mask = np.eye(dims[which], dtype=bool).reshape(shape)
    return (mat.reshape(*mat.shape[:-2], *dims, *dims) * mask).reshape(mat.shape)
