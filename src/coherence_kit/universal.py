"""Depolarizing channels and the basis-independence machinery around them:
Weyl operators, complete-positivity range, randomized every-basis
falsification, and unitary-isotropic decomposition.
"""

from __future__ import annotations

import numpy as np

from .channels import ChannelError, KrausChannel, apply, choi, dephasing_channel, identity_channel, unit_images
from .coherence import Basis, dephasing_commutant_deviation, random_gi_channel, random_si_channel
from .discord import mixing_permutation_channel
from .linalg import (
    CP_SLACK,
    DEPOL_TOL,
    ISOTROPIC_ACTION_TOL,
    ISOTROPIC_UNITARY_TOL,
    PHASE_ANCHOR_TOL,
    check_tolerance,
    dagger,
    eig_hermitian,
    matrix_function,
)
from .sampling import random_unitary, stream


def weyl_operator(k: int, l: int, d: int) -> np.ndarray:
    """Shift-and-phase unitary L_kl = sum_j w^{jk} |j+l mod d><j|."""
    if not (0 <= k < d and 0 <= l < d):
        raise ValueError(f"indices ({k},{l}) out of range for d={d}")
    w = np.exp(2j * np.pi / d)
    out = np.zeros((d, d), dtype=complex)
    for j in range(d):
        out[(j + l) % d, j] = w ** (j * k)
    return out


def bell_basis(d: int) -> list[np.ndarray]:
    """The d^2 orthonormal states sum_j w^{jk}|j>|j+l mod d>/sqrt(d)."""
    w = np.exp(2j * np.pi / d)
    out = []
    for k in range(d):
        for l in range(d):
            v = np.zeros(d * d, dtype=complex)
            for j in range(d):
                v[j * d + ((j + l) % d)] = w ** (j * k) / np.sqrt(d)
            out.append(v)
    return out


def p_range(d: int) -> tuple[float, float]:
    """Closed interval of mixing parameters keeping the channel CP."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return (-1.0 / (d * d - 1), 1.0)


def depolarizing_channel(d: int, p: float, basis: Basis | None = None) -> KrausChannel:
    """rho -> p rho + (1-p) I/d from weighted Weyl operators.

    The Kraus set {kappa_kl L_kl} is strictly incoherent in the given basis
    (and, with suitable representations, in every basis); p must lie in the
    complete-positivity range (within CP_SLACK).
    """
    lo, hi = p_range(d)
    if p < lo - CP_SLACK or p > hi + CP_SLACK:
        raise ChannelError(f"p={p} outside CP range [{lo}, {hi}]")
    ops = []
    for k in range(d):
        for l in range(d):
            if k == 0 and l == 0:
                kappa = np.sqrt(max(0.0, 1 + (d * d - 1) * p)) / d
            else:
                kappa = np.sqrt(max(0.0, 1 - p)) / d
            ops.append(kappa * weyl_operator(k, l, d))
    ops = np.array(ops)
    return KrausChannel(ops if basis is None else basis.from_coords(ops))


def is_depolarizing(channel: KrausChannel, tol: float = DEPOL_TOL) -> float | None:
    """Mixing parameter p if the channel is rho -> p rho + (1-p)I/d, else None.

    Fits the Choi matrix to a|alpha_00><alpha_00| + c(I - |a00><a00|)/1 and
    accepts when the residual is below tol.
    """
    check_tolerance(tol)
    if channel.dim_in != channel.dim_out:
        return None
    d = channel.dim_in
    c = choi(channel)
    alpha = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)  # bell_basis(d)[0], built alone
    a = float(np.real(np.vdot(alpha, c @ alpha)))
    p = (a * d * d - 1.0) / (d * d - 1.0)
    lo, hi = p_range(d)
    if p < lo - tol or p > hi + tol:
        return None
    proj = np.outer(alpha, alpha.conj())
    model = p * proj + (1.0 - p) / (d * d) * np.eye(d * d)
    if np.max(np.abs(c - model)) > tol:
        return None
    return p


def is_unital(channel: KrausChannel, tol: float = DEPOL_TOL) -> bool:
    """Whether the maximally mixed state is a fixed point."""
    check_tolerance(tol)
    d = channel.dim_in
    out = apply(channel, np.eye(d, dtype=complex) / d)
    return bool(np.max(np.abs(out - np.eye(d) / d)) < tol)


def every_basis_falsifier(
    channel: KrausChannel, n_bases: int = 200, seed: int = 0, tol: float = DEPOL_TOL
) -> Basis | None:
    """Search random bases for one where the channel visibly fails to commute
    with that basis's dephasing, i.e. ``dephasing_commutant_deviation(channel,
    b) > tol``.

    That one quantity covers both necessary conditions for SI in the basis:
    basis projectors must map to basis-diagonal states (the i = j matrix
    units) and off-diagonal units must have no basis-diagonal image (i != j).
    Returns the first violating basis or None.  Finding none is evidence (not
    proof) of basis-independence; the exact criterion is ``is_depolarizing``.
    """
    check_tolerance(tol)
    d = channel.dim_in
    for trial in range(n_bases):
        b = Basis._built(random_unitary(d, stream(seed, 61, d, trial)))
        if dephasing_commutant_deviation(channel, b) > tol:
            return b
    return None


def isotropic_decompose(channel: KrausChannel, tol: float = DEPOL_TOL):
    """Split a channel as rho -> p U rho U^dag + (1-p) I/d, or None.

    Requires the Choi spectrum {a, c x (d^2-1)}; the unitary comes from the
    top eigenvector reshaped to a matrix, with the global phase fixed so
    the first nonzero entry is positive real.  Antiunitary-isotropic
    channels are not recognized and yield None.
    """
    check_tolerance(tol)
    if channel.dim_in != channel.dim_out:
        return None
    d = channel.dim_in
    c = choi(channel)
    lam, vec = eig_hermitian(c)
    if lam[0] - lam[-1] <= tol:
        # Fully degenerate spectrum: the completely depolarizing channel.
        return np.eye(d, dtype=complex), 0.0
    # The spectrum must be one singleton plus a (d^2-1)-fold level; the
    # singleton sits at the top for p > 0 and at the bottom for p < 0.
    if lam[1] - lam[-1] <= tol:
        single = 0
    elif lam[0] - lam[-2] <= tol:
        single = len(lam) - 1
    else:
        return None
    a = float(lam[single])
    p = (a * d * d - 1.0) / (d * d - 1.0)
    v = vec[:, single].reshape(d, d)
    # Polar step: the eigenvector of an isotropic channel is U/sqrt(d) exactly,
    # so sqrt(d) v is unitary up to numerical noise; re-unitarize via QR-free
    # projection using the matrix square root of v v^dag.
    vv = v @ dagger(v)
    u = matrix_function(vv, "inv_sqrt") @ v
    flat = u.reshape(-1)
    first = flat[np.argmax(np.abs(flat) > PHASE_ANCHOR_TOL)]
    u = u * (np.conj(first) / abs(first))
    if np.max(np.abs(dagger(u) @ u - np.eye(d))) > ISOTROPIC_UNITARY_TOL:
        return None
    # Verify the claimed action on all matrix units |i><j|.
    expect = p * np.einsum("ai,bj->ijab", u, u.conj())
    expect[np.arange(d), np.arange(d)] += (1.0 - p) / d * np.eye(d)
    if np.max(np.abs(unit_images(channel) - expect)) > max(tol, ISOTROPIC_ACTION_TOL):
        return None
    return u, p


def isotropic_channel(u: np.ndarray, p: float) -> KrausChannel:
    """rho -> p U rho U^dag + (1-p) I/d as a Kraus channel."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    return KrausChannel(u @ depolarizing_channel(d, p).kraus)


def channel_zoo(seed: int = 0) -> dict[str, KrausChannel]:
    """Named menagerie of ~50 channels exercising every classification branch."""
    zoo: dict[str, KrausChannel] = {}
    idx = 0
    for d in (2, 3, 4):
        lo, _ = p_range(d)
        for p in (1.0, 0.7, 0.3, 0.0, lo / 2, lo):
            zoo[f"depolarizing-d{d}-p{p:.4f}"] = depolarizing_channel(d, p)
    for d in (2, 3):
        rng = stream(seed, 67, d)
        for i in range(4):
            zoo[f"unitary-d{d}-{i}"] = KrausChannel((random_unitary(d, rng),))
        for i in range(4):
            zoo[f"si-random-d{d}-{i}"] = random_si_channel(d, 2, seed=seed, index=idx)
            idx += 1
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    zoo["hadamard"] = KrausChannel((h,))
    zoo["isotropic-hadamard-p0.7"] = isotropic_channel(h, 0.7)
    for d in (2, 3):
        zoo[f"dephasing-d{d}"] = dephasing_channel(d)
    for gamma in (0.3, 0.5, 0.9):
        k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
        zoo[f"amplitude-damping-{gamma}"] = KrausChannel((k0, k1))
    zoo["permutation-mix-qutrit"] = mixing_permutation_channel()
    for d in (2, 3):
        rng = stream(seed, 68, d)
        u = random_unitary(d, rng)
        zoo[f"isotropic-random-d{d}"] = isotropic_channel(u, 0.55)
    swap = np.eye(2, dtype=complex)[:, [1, 0]]
    zoo["bit-flip"] = KrausChannel((swap,))
    zoo["bit-flip-mix"] = KrausChannel((np.sqrt(0.6) * np.eye(2, dtype=complex), np.sqrt(0.4) * swap))
    for d in (2, 3):
        zoo[f"identity-d{d}"] = identity_channel(d)
        zoo[f"gi-random-d{d}"] = random_gi_channel(d, 2, seed=seed)
    return zoo
