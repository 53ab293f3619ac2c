"""Reference computations made apart from coherence_kit.

Everything here uses numpy's LAPACK-backed ``eigh``/``eigvalsh`` and einsum
index gymnastics, never the library, so a check that compares a library
value with one of these functions compares two independent computations.
Entropies are in bits.
"""

from __future__ import annotations

import numpy as np

CUTOFF = 1e-12


def entropy(rho: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > CUTOFF]
    return float(-np.sum(lam * np.log2(lam)))


def marginal(mat: np.ndarray, da: int, db: int, keep: str) -> np.ndarray:
    t = mat.reshape(da, db, da, db)
    return np.einsum("ajbj->ab", t) if keep == "A" else np.einsum("jajb->ab", t)


def dephase_a(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    """Zero the blocks whose A indices differ (diagonal mask on A)."""
    mask = np.eye(da, dtype=bool)[:, None, :, None]
    return (mat.reshape(da, db, da, db) * mask).reshape(da * db, da * db)


def dephase(m: np.ndarray) -> np.ndarray:
    return m * np.eye(m.shape[0], dtype=bool)


def mutual_information(mat: np.ndarray, da: int, db: int) -> float:
    return (
        entropy(marginal(mat, da, db, "A"))
        + entropy(marginal(mat, da, db, "B"))
        - entropy(mat)
    )


def classical_correlations(mat: np.ndarray, da: int, db: int) -> float:
    return mutual_information(dephase_a(mat, da, db), da, db)


def apply(kraus, rho: np.ndarray) -> np.ndarray:
    ops = np.asarray(kraus, dtype=complex)
    return np.einsum("kab,bc,kdc->ad", ops, rho, ops.conj())


def local_apply_a(kraus, mat: np.ndarray, da: int, db: int) -> np.ndarray:
    """(E x id)(rho) by contracting the A indices, with no Kronecker product."""
    ops = np.asarray(kraus, dtype=complex)
    dout = ops.shape[1]
    t = mat.reshape(da, db, da, db)
    out = np.einsum("kxa,aibj,kyb->xiyj", ops, t, ops.conj())
    return out.reshape(dout * db, dout * db)


def _spectral(m: np.ndarray, fn) -> np.ndarray:
    lam, vec = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (vec * fn(np.clip(lam, 0.0, None))) @ vec.conj().T


def sqrtm_psd(m: np.ndarray) -> np.ndarray:
    return _spectral(m, np.sqrt)


def inv_sqrt_support(m: np.ndarray) -> np.ndarray:
    def f(lam):
        out = np.zeros_like(lam)
        out[lam > CUTOFF] = 1.0 / np.sqrt(lam[lam > CUTOFF])
        return out

    return _spectral(m, f)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    root = sqrtm_psd(rho)
    inner = root @ sigma @ root
    lam = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2.0), 0.0, None)
    return float(np.sum(np.sqrt(lam)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    lam, vec = np.linalg.eigh(sigma)
    support = lam > CUTOFF
    in_sigma = np.real(np.einsum("ia,ij,ja->a", vec.conj(), rho, vec))
    return -entropy(rho) - float(np.sum(in_sigma[support] * np.log2(lam[support])))


def distance(metric: str, rho: np.ndarray, sigma: np.ndarray) -> float:
    if metric == "trace":
        return trace_distance(rho, sigma)
    if metric == "one_minus_fidelity":
        return 1.0 - min(1.0, fidelity(rho, sigma))
    return relative_entropy(rho, sigma)


def petz_recovered(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    """R_A(Phi_A(rho)) for the Petz map with Kraus rho_A^{1/2} P_i sigma^{-1/2}.

    sigma is the dephased marginal; a kernel of sigma gets the completion
    sqrt(I - sum K^dag K) so the map stays trace preserving.
    """
    rho_a = marginal(mat, da, db, "A")
    root = sqrtm_psd(rho_a)
    inv_root = inv_sqrt_support(dephase(rho_a))
    eye = np.eye(da)
    ops = [root @ np.diag(eye[i]) @ inv_root for i in range(da)]
    gap = eye - sum(k.conj().T @ k for k in ops)
    if np.max(np.abs(gap)) > 1e-10:
        ops.append(sqrtm_psd(gap))
    return local_apply_a(ops, dephase_a(mat, da, db), da, db)


def dephasing_deviation(kraus, d: int) -> float:
    """max over matrix units X of |Phi(E(X)) - E(Phi(X))|, computational basis."""
    worst = 0.0
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            diff = dephase(apply(kraus, unit)) - apply(kraus, dephase(unit))
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst

