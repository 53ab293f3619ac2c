"""Basis-dependent bipartite correlations and their recovery structure.

The dephasing basis always lives on side A.  All quantities are in bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    BipartiteState,
    ChannelError,
    KrausChannel,
    compose,
    identity_channel,
    local_apply,
    local_branches,
    pad_trace_preserving,
    unit_images,
    with_memory,
)
from .coherence import Basis, classify_channel, classify_kraus
from .linalg import (
    DISCORD_IDENTITY_TOL,
    EQUAL_STATE_TOL,
    MEMORY_SLACK,
    MONOTONE_SLACK,
    NEGATIVE_DISCORD_TOL,
    NEGLIGIBLE_P,
    NOISE_FLOOR,
    RECOVERY_GAP_TOL,
    STRUCTURE_TOL,
    SUPPORT_CUTOFF,
    TIE_RTOL,
    InvariantError,
    _cross_entropy,
    check_tolerance,
    dagger,
    dephase_subsystem,
    eigvals_hermitian,
    ket,
    matrix_function,
    partial_trace,
    projector,
    root_fidelity,
    spectrum_entropies,
    spectrum_entropy,
    tensor_product,
    trace_distance,
)
from .sampling import random_density_matrix, stream

LN2 = math.log(2.0)


def _dephase_a(states: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Local dephasing of side A in the computational basis, of a d_A d_B
    matrix or of each matrix of a stack."""
    return dephase_subsystem(states, (dim_a, dim_b), 0)


def mutual_information(rho: BipartiteState) -> float:
    """I(A:B) = S(A) + S(B) - S(AB), in bits: the field of ``basis_discord``."""
    return basis_discord(rho).mutual_information


def classical_correlations(rho: BipartiteState, basis: Basis | None = None) -> float:
    """Mutual information surviving dephasing of A: J(B|A) = I(A:B) after
    Phi_A, the field of ``basis_discord``."""
    return basis_discord(rho, basis).classical_correlations


@dataclass(frozen=True)
class DiscordReport:
    """Basis-dependent correlation measures of one bipartite state (bits)."""

    mutual_information: float
    classical_correlations: float
    basis_discord: float
    local_coherence: float
    conditional_coherence: float

    def to_dict(self) -> dict:
        return {
            "I": self.mutual_information,
            "J": self.classical_correlations,
            "delta": self.basis_discord,
            "C_A": self.local_coherence,
            "C_B_given_A": self.conditional_coherence,
        }


def _discord_stack(states: np.ndarray, dim_a: int, dim_b: int, joint: np.ndarray | None = None) -> tuple:
    """The arrays (I, J, delta, C(A), C(B|A)) of a stack (s, n, n) of
    d_A x d_B states, each in A's coordinates.

    I = S(A) + S(B) - S(AB) is taken from each state rho and J from its
    dephased copy Phi_A(rho) the same way; C(A) = H(diag rho_A) - S(A) and
    the conditional coherence C(B|A) = S(Phi_A(rho)) - S(rho).  That takes
    three checked eigensolves of a stack: the joint states with the
    dephased ones (only the dephased when ``joint`` holds the joint
    spectra), the A marginals (for S(A) and C(A) both) and the B marginals
    of rho and of Phi_A(rho).  The A marginal of Phi_A(rho) is diagonal, so
    its entropy is that of its sorted diagonal.  Entropies are
    ``spectrum_entropies`` rows, bit for bit those of ``spectrum_entropy``.
    The identity delta = C(B|A) - C(A), asserted per state as a numerical
    cross-check, holds only if Phi_A leaves rho_B and the diagonal of rho_A
    unchanged, so a dephasing of the wrong side or in the wrong coordinates
    breaks it.  An InvariantError names the state by its index in the stack.
    """
    s, dims = len(states), (dim_a, dim_b)
    both = np.concatenate([states, _dephase_a(states, dim_a, dim_b)])
    spectra = eigvals_hermitian(both) if joint is None else np.concatenate([joint, eigvals_hermitian(both[s:])])
    s_ab, s_dephased = spectrum_entropies(spectra).reshape(2, s)
    # rho_A, then the A marginal of Phi_A(rho).
    marginals_a = partial_trace(both, dims, "A")
    diagonals = np.sort(np.real(np.diagonal(marginals_a, axis1=1, axis2=2)), axis=1)
    spectra_a = np.concatenate([eigvals_hermitian(marginals_a[:s]), diagonals])
    s_a, h_a, h_dephased_a = spectrum_entropies(spectra_a).reshape(3, s)
    s_b, s_b_dephased = spectrum_entropies(eigvals_hermitian(partial_trace(both, dims, "B"))).reshape(2, s)
    i = s_a + s_b - s_ab
    j = h_dephased_a + s_b_dephased - s_dephased
    delta = i - j
    c_a = h_a - s_a
    c_cond = s_dephased - s_ab
    broken = np.abs(delta - (c_cond - c_a)) > DISCORD_IDENTITY_TOL
    if broken.any():
        k = int(np.argmax(broken))
        raise InvariantError(
            f"discord identity violated at state {k}: I - J = {delta[k]:.3e}, "
            f"C(B|A) - C(A) = {c_cond[k] - c_a[k]:.3e}"
        )
    negative = delta < -NEGATIVE_DISCORD_TOL
    if negative.any():
        k = int(np.argmax(negative))
        raise InvariantError(f"negative discord {delta[k]:.3e} at state {k}")
    return i, j, delta, c_a, c_cond


def basis_discord(rho: BipartiteState, basis: Basis | None = None) -> DiscordReport:
    """Full correlation report: I, J, delta = I - J, C(A) and C(B|A).

    The one-state case of ``_discord_stack``, which asserts delta = C(B|A)
    - C(A).  S(AB) is read from ``rho.spectrum``, so a call makes three
    checked eigensolves (the dephased state, rho_A, and rho_B with the B
    marginal of Phi_A(rho)), and a fourth where that spectrum is not yet
    known (a library-built state read for the first time).
    """
    if basis is not None:
        rho = basis.to_coords_a(rho)
    fields = _discord_stack(rho.state[None], rho.dim_a, rho.dim_b, rho.spectrum[None])
    return DiscordReport(*(float(f[0]) for f in fields))


def _petz_channel(rho_a: np.ndarray) -> KrausChannel:
    """The transpose channel undoing dephasing on the marginal rho_a, Kraus
    operators rho_a^{1/2} P_i sigma^{-1/2} (sigma dephased, P_i computational),
    with sigma's kernel projector appended so that it is trace-preserving.
    sigma is the diagonal of rho_a: sigma^{-1/2} is 1/sqrt on the entries
    above SUPPORT_CUTOFF and 0 elsewhere, as ``matrix_function`` gives it,
    without an eigensolve (rho_a's own PSD check bounds the diagonal)."""
    rho_a = np.asarray(rho_a, dtype=complex)
    sigma = np.real(np.diagonal(rho_a))
    support = sigma > SUPPORT_CUTOFF
    inv_root = np.zeros(len(sigma))
    inv_root[support] = 1.0 / np.sqrt(sigma[support])
    root = matrix_function(rho_a, "sqrt")
    return pad_trace_preserving(KrausChannel._built(root * np.eye(len(sigma))[:, None, :] * inv_root))


def petz_recover(rho: BipartiteState, basis: Basis | None = None):
    """Petz recovery of dephasing on A: channel and the recovered state.

    Returns (channel acting on A, R_A(Phi_A(rho))).  When the basis discord
    vanishes the recovered state equals the input.
    """
    work = rho if basis is None else basis.to_coords_a(rho)
    petz = _petz_channel(work.marginal("A"))
    recovered = local_apply(petz, BipartiteState._built(_dephase_a(work.state, *work.dims), *work.dims), "A")
    if basis is None:
        return petz, recovered
    return KrausChannel._built(basis.from_coords(petz.kraus)), basis.from_coords_a(recovered)


@dataclass(frozen=True)
class ZeroDiscordDecomposition:
    """Block decomposition sum_alpha p_alpha rho_A^alpha x rho_B^alpha with
    pairwise disjoint coherence supports, or the failure evidence."""

    success: bool
    blocks: tuple[tuple[float, np.ndarray, np.ndarray, frozenset], ...]
    residual: float

    def reconstruct(self, dim_a: int, dim_b: int) -> np.ndarray:
        out = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
        for p, a, b, _ in self.blocks:
            out += p * tensor_product(a, b)
        return out


def _a_groups(mat: np.ndarray, da: int, db: int, tol: float) -> list[list[int]]:
    """The indices of A joined by union-find wherever an off-diagonal
    B-block (i, j) of the d_A d_B matrix has an entry above tol in modulus;
    groups in order of their least index, each in ascending order."""
    linked = (np.abs(mat).reshape(da, db, da, db).max(axis=(1, 3)) > tol).tolist()
    parent = list(range(da))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(da):
        for j in range(i + 1, da):
            if linked[i][j]:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(da):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def zero_discord_decompose(
    rho: BipartiteState, basis: Basis | None = None, tol: float = EQUAL_STATE_TOL
) -> ZeroDiscordDecomposition:
    """Split a zero-discord state into product blocks over disjoint supports.

    Two basis indices of A are linked when the corresponding off-diagonal
    B-block of the state is non-negligible; each connected group must then
    carry a product state.  The residual is the trace distance between the
    input and the reconstruction; success means residual <= tol.
    """
    check_tolerance(tol)
    work = rho if basis is None else basis.to_coords_a(rho)
    da, db = work.dims
    mat = work.state

    blocks = []
    for members in _a_groups(mat, da, db, tol):
        idx = np.array([i * db + b for i in members for b in range(db)], dtype=int)
        sub = mat[np.ix_(idx, idx)]
        p = float(np.real(np.trace(sub)))
        if p <= NEGLIGIBLE_P:
            continue
        sub_state = sub / p
        n = len(members)
        a_full = np.zeros((da, da), dtype=complex)
        a_full[np.ix_(members, members)] = partial_trace(sub_state, (n, db), "A")
        blocks.append((p, a_full, partial_trace(sub_state, (n, db), "B"), frozenset(members)))

    residual = trace_distance(mat, ZeroDiscordDecomposition(False, tuple(blocks), 0.0).reconstruct(da, db))
    if basis is not None:
        blocks = [(p, basis.from_coords(a), b, s) for p, a, b, s in blocks]
    return ZeroDiscordDecomposition(residual <= tol, tuple(blocks), residual)


def random_zero_discord_state(
    dim_a: int, dim_b: int, seed: int = 0, index: int = 0
) -> BipartiteState:
    """Planted zero-discord state: product blocks on a random partition of A."""
    rng = stream(seed, 41, dim_a, dim_b, index)
    perm = rng.permutation(dim_a)
    n_blocks = int(rng.integers(1, dim_a + 1))
    cuts = sorted(rng.choice(np.arange(1, dim_a), size=n_blocks - 1, replace=False)) if n_blocks > 1 else []
    groups = np.split(perm, cuts)
    weights = rng.dirichlet(np.ones(len(groups)))
    out = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for w, members in zip(weights, groups):
        small = random_density_matrix(len(members), rng)
        a_full = np.zeros((dim_a, dim_a), dtype=complex)
        a_full[np.ix_(members, members)] = small
        out += w * tensor_product(a_full, random_density_matrix(dim_b, rng))
    return BipartiteState._built(out, dim_a, dim_b)


def zero_discord_example() -> BipartiteState:
    """Qutrit-qubit state with vanishing basis discord but local coherence:
    an equal mixture of |+01> x |0> and |2> x |1>."""
    plus = (ket(0, 3) + ket(1, 3)) / np.sqrt(2)
    mat = 0.5 * tensor_product(projector(plus), projector(ket(0, 2))) + 0.5 * tensor_product(
        projector(ket(2, 3)), projector(ket(1, 2))
    )
    return BipartiteState(mat, 3, 2)


def mixing_permutation_channel() -> KrausChannel:
    """Qutrit channel mixing the identity with the 1 <-> 2 swap, equal weight."""
    p = np.eye(3, dtype=complex)[:, [0, 2, 1]]
    return KrausChannel((np.sqrt(0.5) * np.eye(3, dtype=complex), np.sqrt(0.5) * p))


def delta_creation_demo() -> dict:
    """Deterministic (outcome-averaged) action of an SI channel can create
    basis discord; returns the before/after values in bits."""
    rho = zero_discord_example()
    before = basis_discord(rho).basis_discord
    mixed = local_apply(mixing_permutation_channel(), rho, "A")
    after = basis_discord(mixed).basis_discord
    return {"before": before, "after": after, "state": mixed}


def ensemble_monotonicity_trial(
    kind: str, rho: BipartiteState, channel: KrausChannel, basis: Basis | None = None
) -> dict:
    """Outcome-averaged measure after an SI channel on A versus before.

    lhs = sum_mu p_mu M(rho^mu), rhs = M(rho), with M = J or delta taken
    per Kraus outcome; passes when lhs <= rhs + MONOTONE_SLACK.  Branches
    of probability <= NEGLIGIBLE_P are dropped; M of the input and of the
    normalised branches left comes from one ``_discord_stack`` call on
    [rho, rho^1, rho^2, ...], so an InvariantError's state k >= 1 is the
    k-th branch kept.
    """
    if kind not in ("J", "delta"):
        raise ValueError(f"kind must be 'J' or 'delta', got {kind!r}")
    work = channel if basis is None else KrausChannel._built(basis.to_coords(channel.kraus))
    if not channel.trace_preserving or not all(classify_kraus(k).strictly_incoherent for k in work.kraus):
        raise ChannelError("ensemble monotonicity needs a trace-preserving SI channel")
    if basis is not None:
        rho = basis.to_coords_a(rho)

    branches = local_branches(work, rho, "A")
    p = np.real(np.trace(branches, axis1=1, axis2=2))
    kept = p > NEGLIGIBLE_P
    states = np.concatenate([rho.state[None], branches[kept] / p[kept, None, None]])
    rhs, *after = _discord_stack(states, rho.dim_a, rho.dim_b)[1 if kind == "J" else 2].tolist()
    lhs = 0.0
    for weight, value in zip(p[kept].tolist(), after):
        lhs += weight * value
    return {"lhs": lhs, "rhs": rhs, "pass": lhs <= rhs + MONOTONE_SLACK}


def j_increase_witness(channel: KrausChannel, basis: Basis | None = None):
    """State on which an incoherent-but-not-SI channel raises J(B|A).

    Scans the images tau = E(|i><j|), i != j, for a nonzero diagonal element
    tau_kk (all in basis coordinates), then pairs |phi> = (|i> + e^{i phi}|j>)
    /sqrt(2) with a qubit flag so that J is zero before the channel and
    positive after.  The witness is the first (i, j, k) in row-major order
    whose |tau_kk| is within a relative TIE_RTOL of the largest, so exact ties
    (mirror pairs, equal overlaps) do not fall to float noise.  Raises when
    no such element exists (the channel commutes with dephasing).  The
    witness state is returned in the caller's coordinates.
    """
    d = channel.dim_in
    work = channel if basis is None else KrausChannel._built(basis.to_coords(channel.kraus))
    diag = np.einsum("ijkk->ijk", unit_images(work))
    mag = np.abs(diag)
    mag[np.arange(d), np.arange(d)] = 0.0
    top = float(mag.max())
    if top <= STRUCTURE_TOL:
        raise ChannelError("no dephasing-commutation violation: channel looks SI")
    i, j, k = np.unravel_index(np.argmax(mag >= top * (1.0 - TIE_RTOL)), mag.shape)
    tkk = diag[i, j, k]
    phi = float(np.angle(tkk))
    vec = (ket(i, d) + np.exp(1j * phi) * ket(j, d)) / np.sqrt(2)
    mat = 0.5 * tensor_product(projector(vec), projector(ket(0, 2))) + 0.25 * tensor_product(
        projector(ket(i, d)) + projector(ket(j, d)), projector(ket(1, 2))
    )
    state = BipartiteState(mat, d, 2)
    after = local_apply(work, state, "A")
    j_before, j_after = _discord_stack(np.stack([state.state, after.state]), d, 2)[1].tolist()
    if basis is not None:
        state = basis.from_coords_a(state)
    return state, phi, j_before, j_after


# Each interior-point step goes this fraction of the way to the boundary of
# the cone; the barrier solve of the smooth metrics also starts this close to
# the best candidate's states, the rest of the way to I/d_A.
BOUNDARY_FRACTION = 0.95
# The trace metric's iterates are scored once the interior-point gap tr(XS) is
# at most this multiple of RECOVERY_GAP_TOL (the certified gap closes near
# tr(XS) / 2).
CERTIFY_BELOW = 100.0
# Fidelity and relative entropy: the barrier weight mu starts at BARRIER_START
# and is multiplied by BARRIER_SHRINK after a step whose Newton decrement is at
# most mu; a step is halved until it keeps ARMIJO of its predicted decrease.
BARRIER_START = 0.01
BARRIER_SHRINK = 0.05
ARMIJO = 0.25


def _spectral_map(m: np.ndarray, fn) -> np.ndarray:
    """V fn(Lambda) V^dag for a Hermitian m = V Lambda V^dag, or for each
    matrix of a stack."""
    lam, v = np.linalg.eigh(m)
    return (v * fn(lam)[..., None, :]) @ dagger(v)


def _project_states(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest stack of density matrices to a Hermitian stack m:
    each spectrum is projected onto the probability simplex (sorted,
    cumulative-sum threshold) with the eigenvectors kept."""
    lam, v = np.linalg.eigh(m)
    top = lam[:, ::-1]
    shift = (np.cumsum(top, axis=1) - 1.0) / np.arange(1, top.shape[1] + 1)
    theta = shift[np.arange(len(top)), np.count_nonzero(top > shift, axis=1) - 1]
    return (v * np.maximum(lam - theta[:, None], 0.0)[:, None, :]) @ dagger(v)


def _prepared_states(ops: np.ndarray) -> np.ndarray:
    """omega_i = R(|i><i|) for a Kraus stack of R."""
    return np.einsum("kai,kbi->iab", ops, ops.conj())


def _measure_prepare_kraus(omega: np.ndarray) -> np.ndarray:
    """Kraus stack sqrt(lam_ik) |v_ik><i| of X -> sum_i <i|X|i> omega_i over
    the positive eigenpairs (lam_ik, v_ik) of each omega_i."""
    lam, v = np.linalg.eigh(omega)
    ops = np.einsum("iak,ij->ikaj", v * np.sqrt(np.maximum(lam, 0.0))[:, None, :], np.eye(len(lam)))
    return ops.reshape(-1, len(lam), len(lam))[lam.reshape(-1) > 0.0]


class _RecoveryProblem:
    """D(rho, (R x id)(sigma)) as a convex function of the states R prepares.

    sigma = Phi_A(rho) = sum_i |i><i| x sigma_i is classical on A, so the
    recovered state L(omega) = sum_i omega_i x sigma_i reads R only through
    omega_i = R(|i><i|).  The measure-and-prepare channel X -> sum_i <i|X|i>
    omega_i reaches every stack of d_A states, so the optimum over CPTP R is
    the optimum over the product of spectraplexes {omega_i >= 0, tr omega_i
    = 1}.  ``minorant`` gives an affine c + tr(g X) below the metric on all
    states X; its minimum over that set bounds the optimum.
    """

    def __init__(self, metric: str, state: BipartiteState, sigma: np.ndarray):
        self.metric, self.rho = metric, state.state
        self.da, self.db = state.dims
        idx = np.arange(self.da)
        # Row i is sigma_i flattened.
        self.s = sigma.reshape(self.da, self.db, self.da, self.db)[idx, :, idx, :].reshape(self.da, -1)
        if metric == "one_minus_fidelity":
            lam, v = np.linalg.eigh(self.rho)
            keep = lam > SUPPORT_CUTOFF
            v = v[:, keep]
            self.root = (v * np.sqrt(lam[keep])) @ dagger(v)
            self.support = v @ dagger(v)
            self.sqrt_rho = matrix_function(self.rho, "sqrt")  # fidelity's: unlike root, keeps lam <= SUPPORT_CUTOFF
        elif metric == "rel_ent":
            self.neg_entropy = -spectrum_entropy(state.spectrum)

    def distance_to(self, x: np.ndarray) -> float:
        """``distance(metric, rho, x)``, with sqrt(rho) or -S(rho) computed once."""
        if self.metric == "trace":
            return trace_distance(self.rho, x)
        if self.metric == "one_minus_fidelity":
            return 1.0 - min(1.0, root_fidelity(self.sqrt_rho, x))
        return self.neg_entropy + _cross_entropy(self.rho, x)

    def link(self, omega: np.ndarray) -> np.ndarray:
        """L(omega) = sum_i omega_i x sigma_i; for a stack (..., d_A, k, k)
        of the blocks of the omega_i on k indices of A, that sum per block."""
        *lead, da, k, _ = omega.shape
        out = (omega.reshape(*lead, da, k * k).mT @ self.s).reshape(*lead, k, k, self.db, self.db)
        return out.swapaxes(-3, -2).reshape(*lead, k * self.db, k * self.db)

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """L^*(g)_i = Tr_B[(I x sigma_i) g], so tr(g L(omega)) = sum_i tr(L^*(g)_i
        omega_i); for a stack of blocks of g on k indices of A, per block."""
        *lead, n, _ = g.shape
        k = n // self.db
        regrouped = g.reshape(*lead, k, self.db, k, self.db).swapaxes(-3, -2).reshape(*lead, k * k, -1)
        return (self.s.conj() @ regrouped.mT).reshape(*lead, self.da, k, k)

    def minorant(self, x: np.ndarray, z: np.ndarray) -> tuple[float, np.ndarray]:
        """(c, g) with c + tr(g X) <= D(rho, X) for every state X.

        Trace: (tr(z rho)/2, -z/2) for the dual iterate z, ||z|| <= 1.
        Fidelity: Alberti's F(rho, X) <= (tr(rho W^{-1}) + tr(X W))/2 with
        W = sqrt(rho) A^{-1/2} sqrt(rho), A = sqrt(rho) x sqrt(rho), so
        equality holds at x.  Relative entropy: the tangent at x, its
        spectrum floored at SUPPORT_CUTOFF so that the point is positive
        definite.  The smooth metrics take it from ``tangent``.
        """
        if self.metric == "trace":
            return 0.5 * float(np.real(np.vdot(z, self.rho))), -0.5 * z
        return self.tangent(x)[1:3]

    def tangent(self, x: np.ndarray) -> tuple[float, float, np.ndarray, tuple]:
        """(value, c, g, spectral) for fidelity and relative entropy: the
        metric at x and ``minorant``'s (c, g) from one eigendecomposition, with
        the minorant's floor, and that eigendecomposition for ``hessian``."""
        if self.metric == "one_minus_fidelity":
            a, v = np.linalg.eigh(self.root @ x @ self.root)
            a = np.maximum(a, NOISE_FLOOR * max(1.0, float(a[-1])))
            in_support = np.real(np.einsum("ik,ij,jk->k", v.conj(), self.support, v))
            w = self.root @ ((v / np.sqrt(a)) @ dagger(v)) @ self.root
            roots = float(np.sum(np.sqrt(a) * in_support))
            return 1.0 - roots, 1.0 - 0.5 * roots, -0.5 * w, (a, self.root @ v)
        lam, v = np.linalg.eigh(x)
        lam = np.maximum(lam, SUPPORT_CUTOFF)
        coords = dagger(v) @ self.rho @ v
        # Divided differences of log, (log a - log b) / (a - b); near the
        # diagonal as 2 artanh(t) / (t (a + b)) with t = (a - b) / (a + b).
        a, b = lam[:, None], lam[None, :]
        far = np.abs(a - b) > 0.5 * np.maximum(a, b)
        t = np.where(far, 0.0, (a - b) / (a + b))
        near = np.where(t == 0.0, 1.0, np.arctanh(t) / np.where(t == 0.0, 1.0, t)) * 2.0 / (a + b)
        diff = np.where(far, (np.log(a) - np.log(b)) / np.where(far, a - b, 1.0), near)
        g = -(v @ (diff * coords) @ dagger(v)) / LN2
        value = self.neg_entropy - float(np.sum(np.real(np.diag(coords)) * np.log2(lam)))
        return value, value + 1.0 / LN2, g, (lam, v, coords, diff)

    def hessian(self, spectral: tuple, basis: np.ndarray) -> np.ndarray:
        """The metric's Hessian at x = L(omega) over the directions T_k at slot
        i (columns vec(T_k) of ``basis``), by Daleckii-Krein on ``tangent``'s
        eigendecomposition, where T_k x sigma_i reads H = q^dag (T_k x sigma_i) q.
        Fidelity, q = sqrt(rho) v: sum_ab Gamma_ab conj(H_ab) H'_ab / 2 with
        Gamma_ab = 1 / (sqrt(a_a a_b) (sqrt(a_a) + sqrt(a_b))), the divided
        differences of -A^{-1/2}; H = 0 on the kernel of rho.  Relative entropy,
        q = v: 2 Re sum_acb W_acb H_ac H'_cb, W_acb = -log^[2](l_a, l_c, l_b)
        <b|rho|a> / ln 2; H = 0 and <b|rho|a> = 0 off C^{d_A} x supp rho_B,
        where X is singular for every omega."""
        da, db = self.da, self.db
        weights, q = spectral[:2]
        n = len(weights)
        split = q.reshape(da, db, n)
        # q^dag (|a><a'| x sigma_i) q, then the basis directions.
        units = dagger(split)[None, :, None] @ (self.s.reshape(da, 1, db, db) @ split)[:, None]
        h = (basis.T @ units.reshape(da, da * da, n * n)).reshape(-1, n * n)
        if self.metric == "one_minus_fidelity":
            r = np.sqrt(weights)
            h = h / np.sqrt(r[:, None] * r * (r[:, None] + r)).reshape(-1)
            return 0.5 * np.real(h.conj() @ h.T)
        w = -_log_second_differences(weights, spectral[3]) * spectral[2].T[:, None, :] / LN2
        p = h.reshape(-1, n, n).transpose(2, 0, 1) @ w.transpose(1, 0, 2)
        return 2.0 * np.real(p.transpose(1, 0, 2).reshape(len(h), -1) @ h.T)

    @staticmethod
    def lower_bound(c: float, grad: np.ndarray) -> float:
        """c + min over state stacks omega of sum_i tr(grad_i omega_i) =
        c + sum_i lambda_min(grad_i), for grad = L^*(g), less the rounding of
        its terms, so that it holds in floating point."""
        lam = np.linalg.eigvalsh(grad)
        slack = NOISE_FLOOR * (abs(c) + float(np.sum(np.max(np.abs(lam), axis=1))))
        return c + float(np.sum(lam[:, 0])) - slack


class _Incumbent:
    """The best stack of states scored so far, its value and the best bound.

    Every metric is >= 0 on states, so the bound starts at 0: a best
    candidate within RECOVERY_GAP_TOL of 0 is certified before any step.
    """

    def __init__(self, problem: _RecoveryProblem, upper: float):
        self.problem, self.omega, self.value, self.bound = problem, None, upper, 0.0

    @property
    def closed(self) -> bool:
        return self.value - self.bound <= RECOVERY_GAP_TOL

    def score(self, omega: np.ndarray, x: np.ndarray, c: float, grad: np.ndarray) -> bool:
        """Offer the stack omega with x = L(omega) and the minorant (c, g) as
        grad = L^*(g); returns whether the gap has closed."""
        value = self.problem.distance_to(x)
        if value < self.value:
            self.omega, self.value = omega, value
        self.bound = max(self.bound, self.problem.lower_bound(c, grad))
        return self.closed


@functools.lru_cache(maxsize=8)
def _hermitian_basis(n: int) -> tuple[np.ndarray, ...]:
    """An orthonormal basis E_k = a_k |i_k><j_k| + b_k |j_k><i_k| of the n x n
    Hermitian matrices (the diagonal units, then the real and the imaginary
    off-diagonal pairs): the row-major unit indices i_k n + j_k and j_k n +
    i_k, the weights a_k, b_k, and the n^2 x n^2 matrix whose column k is E_k
    flattened.  Cached per n, read-only."""
    i, j = np.triu_indices(n, 1)
    diag = np.arange(n) * (n + 1)
    half = math.sqrt(0.5) * np.ones(len(i))
    first = np.concatenate([diag, i * n + j, i * n + j])
    second = np.concatenate([diag, j * n + i, j * n + i])
    a = np.concatenate([np.ones(n), half, 1j * half])
    b = np.concatenate([np.zeros(n), half, -1j * half])
    dense = np.zeros((n * n, n * n), dtype=complex)
    dense[first, np.arange(n * n)] = a
    dense[second, np.arange(n * n)] += b
    for part in (first, second, a, b, dense):
        part.setflags(write=False)
    return first, second, a, b, dense


@functools.lru_cache(maxsize=8)
def _sorted_triples(n: int) -> np.ndarray:
    """The least, middle and largest index of each triple (a, c, b) in
    row-major order, as a 3 x n^3 array.  Cached per n, read-only."""
    out = np.sort(np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij")).reshape(3, -1), axis=0)
    out.setflags(write=False)
    return out


def _log_second_differences(lam: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """log^[2](l_a, l_c, l_b) as an n x n x n array, for ascending l > 0 and
    their first divided differences ``diff``.  Over the sorted triple it is
    (diff[hi, mid] - diff[mid, lo]) / (l_hi - l_lo), which loses about 6 eps
    l_hi / (l_hi - l_lo) of its relative precision; where l_hi - l_lo <=
    l_hi / 2^17 it is log'' / 2 at the mean m instead, -1 / (2 m^2), off by
    at most (l_hi - l_lo)^2 / (6 m^2).  Either way, within about 1e-10."""
    lo, mid, hi = _sorted_triples(len(lam))
    spread = lam[hi] - lam[lo]
    far = spread > lam[hi] / 131072.0
    mean = (lam[hi] + lam[mid] + lam[lo]) / 3.0
    out = np.where(far, (diff[hi, mid] - diff[mid, lo]) / np.where(far, spread, 1.0), -0.5 / (mean * mean))
    return out.reshape((len(lam),) * 3)


def _constraint_matrix(problem: _RecoveryProblem, m: int, k: int) -> tuple[np.ndarray, tuple]:
    """A of ``_interior_point`` (m groups of k indices, n = k d_B) as one
    complex matrix, a row per entry of the cone stack, whose omega_i blocks
    lie d_B to a block down the diagonal, and a column per entry of y:
    column l of group g is (E_l, -E_l, L^*(E_l)_i / 2 on omega_i) on g and
    column t_i is I_k on omega_i in every group; the padding rows are 0.
    Also the indices (..., block, row, column) of the omega_i blocks."""
    da, db = problem.da, problem.db
    n, nn, slot = k * db, (k * db) ** 2, np.arange(da)
    at = (slot % db)[:, None] * k + np.arange(k)
    where = (..., 2 + slot[:, None, None] // db, at[:, :, None], at[:, None, :])
    units = _hermitian_basis(n)[4].T.reshape(nn, n, n)
    a_t = np.zeros((m * nn + da, m, 2 - (-da // db), n, n), dtype=complex)
    for g in range(m):
        group = a_t[g * nn : (g + 1) * nn, g]
        group[:, 0], group[:, 1] = units, -units
        group[where] = 0.5 * problem.adjoint(units)
    a_t[m * nn :].swapaxes(0, 1)[(slice(None), slot[:, None, None]) + where[1:]] = np.eye(k)
    return a_t.reshape(m * nn + da, -1).T, where


def _interior_point(problem: _RecoveryProblem, best: _Incumbent, maxiter: int) -> int:
    """The trace metric by a primal-dual interior-point method; returns the
    number of Newton steps.

    The dual SDP maximises tr(Z rho)/2 + sum_i t_i subject to I - Z >= 0,
    I + Z >= 0 and -L^*(Z)_i/2 - t_i I >= 0.  It is solved over the groups
    of A that ``_a_groups`` finds in the exact zero pattern of rho (a
    classical register on A, such as an outcome memory, gives one group per
    value).  Pinching A onto the groups is a recovery that leaves rho
    fixed, so by data processing some optimal omega_i, and then rho -
    L(omega) and Z, are block-diagonal over them; pinching a dual Z keeps
    tr(Z rho) and ||Z|| <= 1 and lowers no lambda_min(-L^*(Z)_i).  So the
    SDP over Z = sum_g Z_g has the same optimum and bound.  Groups of
    unequal size are merged into one.  y holds the coordinates of each Z_g
    in ``_hermitian_basis``, then t.  X and the slack S = C - A(y) are each
    one stack (m, 2 + ceil(d_A / d_B), n, n): per group g, I - Z_g and I +
    Z_g, then the k x k g blocks of the omega_i, d_B to a block down its
    diagonal.  The padding left holds I in X and S and 0 in every
    direction; block-diagonal matrices keep their zeros through Cholesky,
    inverse and products, so one of each serves every block, and the gap
    is tr(XS) less the padding's trace.  A is ``_constraint_matrix``, A^dag
    its adjoint.  From X = S = I (Z = 0, t = -1) each step moves S by
    -A(dy), so every iterate is dual feasible.  A step solves the HKM Schur
    system M_kl = Re tr(A_k X A_l S^{-1}) (sum_g |Z_g|^2 + d_A rows) by LU,
    as M is too ill-conditioned near the optimum for Cholesky, for
    Mehrotra's predictor and corrector, and goes BOUNDARY_FRACTION of the
    way to the boundary.  Once tr(XS) <= CERTIFY_BELOW * RECOVERY_GAP_TOL,
    at the cap, and where X or S turns singular to working precision (the
    path ends there), ``_Incumbent`` scores omega = ``_project_states`` of
    the omega blocks and the bound at z = Z clipped to [-1, 1] (valid for
    any ||z|| <= 1), both embedded in the whole of A.
    """
    if best.closed:
        return 0
    da, db = problem.da, problem.db
    groups = _a_groups(problem.rho, da, db, 0.0)
    idx = np.array(groups if len({len(g) for g in groups}) == 1 else [list(range(da))])
    m, k = idx.shape
    n, nn = k * db, (k * db) ** 2
    rows = (idx[:, :, None] * db + np.arange(db)).reshape(m, n)
    # sigma_i[b, B] sigma_i[d, D] / 4, flattened over (b, B, d, D).
    sigma_pairs = 0.25 * (problem.s[:, :, None] * problem.s[:, None, :]).reshape(da, -1)
    first, second, a, b, dense = _hermitian_basis(n)
    cons, where = _constraint_matrix(problem, m, k)
    blocks = len(cons) // (m * nn)
    n_cone, padding = m * (2 * n + da * k), m * k * ((blocks - 2) * db - da)
    corners = cons.T.reshape(-1, m, blocks, n, n)[where].transpose(2, 1, 3, 4, 0).reshape(da, m * k * k, -1).conj()
    live = np.zeros((blocks, n, n))
    live[:2] = live[where] = 1.0

    def apply(y: np.ndarray) -> np.ndarray:
        """A(y) = ((Z_g, -Z_g), L^*(Z)_i[g, g] / 2 + t_i I) per group g."""
        return (cons @ y).reshape(m, blocks, n, n)

    def pair(v: np.ndarray) -> np.ndarray:
        """(Re tr(A_l V))_l = Re(A^dag vec V), the adjoint of ``apply``."""
        return np.real(v.reshape(-1).conj() @ cons)

    def schur(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """M_kl = Re tr(A_k X A_l W), W = S^{-1}: per Z_g on its matrix units,
        turned to ``_hermitian_basis`` by index pairs, O(n^4) (distinct Z_g
        share no block); column t_i pairs X_i W_i with ``corners`` (A^dag)."""
        xw, ww = x[where], w[where]
        units = np.einsum("gcpr,gcsq->gpqrs", x[:, :2], w[:, :2]).reshape(m, nn, nn)
        left = np.einsum("giac,giCA->gaAcCi", xw, ww).reshape(m, -1, da)
        lstar = (left @ sigma_pairs).reshape((m,) + (k,) * 4 + (db,) * 4)
        units += lstar.transpose(0, 1, 5, 2, 6, 3, 8, 4, 7).reshape(m, nn, nn)
        col = units[:, :, first] * a + units[:, :, second] * b
        zz = np.real(a.conj()[:, None] * col[:, first] + b.conj()[:, None] * col[:, second])
        out = np.zeros((m * nn + da, m * nn + da))
        for g in range(m):
            out[g * nn : (g + 1) * nn, g * nn : (g + 1) * nn] = zz[g]
        out[m * nn :] = np.real((xw @ ww).swapaxes(0, 1).reshape(da, 1, -1) @ corners)[:, 0]
        out[: m * nn, m * nn :] = out[m * nn :, : m * nn].T
        return out

    def max_steps(dx: np.ndarray, ds: np.ndarray) -> tuple[float, float]:
        """BOUNDARY_FRACTION of the largest steps (at most 1) along dx and ds
        that keep X and S positive: with F the inverse Cholesky factor of P
        (``f``), P + a D >= 0 while a lambda_min(F D F^dag) >= -1."""
        low = np.linalg.eigvalsh(f @ np.stack([dx, ds]) @ f_adj)[..., 0].reshape(2, -1).min(axis=1)
        return tuple(1.0 if v >= 0.0 else min(1.0, -BOUNDARY_FRACTION / float(v)) for v in low)

    def inner(p: np.ndarray, q: np.ndarray) -> float:
        return float(np.real(np.vdot(p, q))) - padding

    def sym(v: np.ndarray) -> np.ndarray:
        return 0.5 * (v + dagger(v)) * live

    def score() -> None:
        omega = np.zeros((da, da, da), dtype=complex)
        omega[:, idx[:, :, None], idx[:, None, :]] = x[where].transpose(1, 0, 2, 3)
        omega = _project_states(omega)
        z = np.zeros((da * db, da * db), dtype=complex)
        z[rows[:, :, None], rows[:, None, :]] = _spectral_map(apply(y)[:, 0], lambda lam: np.clip(lam, -1.0, 1.0))
        states = problem.link(omega)
        c, g = problem.minorant(states, z)
        best.score(omega, states, c, problem.adjoint(g))

    rho_blocks = problem.rho[rows[:, :, None], rows[:, None, :]].reshape(m, nn)
    target = np.concatenate([0.5 * np.real(rho_blocks @ dense.conj()).reshape(-1), np.ones(da)])
    y = np.concatenate([np.zeros(m * nn), -np.ones(da)])
    x = s = np.tile(np.eye(n, dtype=complex), (m, blocks, 1, 1))
    gap, iterations = inner(x, s), 0
    while not best.closed and iterations < maxiter:
        try:
            # Inverse Cholesky factors of X, then of S.
            f = np.linalg.inv(np.linalg.cholesky(np.stack([x, s])))
        except np.linalg.LinAlgError:
            # X or S is singular to working precision: the path ends here.
            score()
            break
        iterations += 1
        f_adj, mu = dagger(f), gap / n_cone
        w = f_adj[1] @ f[1]
        lhs = schur(x, w)
        # Predictor: the affine-scaling direction, towards mu = 0.
        dy = np.linalg.solve(lhs, target)
        ds = apply(-dy)
        dx = sym(-x - x @ ds @ w)
        ap, ad = max_steps(dx, ds)
        centre = (inner(x + ap * dx, s + ad * ds) / n_cone / mu) ** 3 * mu
        # Corrector: towards centre * I, with the predictor's second-order term.
        h = dx @ ds @ w
        dy = np.linalg.solve(lhs, target + pair(h - centre * w))
        ds = apply(-dy)
        dx = sym(centre * w - x - x @ ds @ w - h)
        ap, ad = max_steps(dx, ds)
        x, y, s = x + ap * dx, y + ad * dy, s + ad * ds
        gap = inner(x, s)
        if gap <= CERTIFY_BELOW * RECOVERY_GAP_TOL or iterations == maxiter:
            score()
    return iterations


def _barrier_newton(problem: _RecoveryProblem, best: _Incumbent, omega0: np.ndarray, maxiter: int) -> int:
    """Fidelity and relative entropy by Newton steps on f(omega) - mu sum_i
    log det omega_i, f the metric at L(omega), over the traceless directions
    T_k of each omega_i; returns the number of steps.  The optima lie on the
    boundary (some omega_i is rank-deficient), where Newton steps on f alone
    stall.  On the central path the certified gap is at most mu d_A (d_A - 1),
    so mu falls from BARRIER_START by BARRIER_SHRINK after each step whose
    Newton decrement is <= mu, and iterates are scored by ``_Incumbent`` once
    mu d_A^2 <= RECOVERY_GAP_TOL, and at the cap.  The start is
    BOUNDARY_FRACTION of the way from I/d_A to omega0; a step goes at most
    that fraction of the way to the boundary and is halved until it keeps
    ARMIJO of its predicted decrease, or until it moves no entry by more than
    NOISE_FLOOR: there the path ends, and the iterate is scored."""
    if best.closed:
        return 0
    da, dense = problem.da, _hermitian_basis(problem.da)[4]
    # vec(T_k): |j><j| - |d_A - 1><d_A - 1| (j < d_A - 1), then off-diagonal units.
    basis = np.hstack([dense[:, : da - 1] - dense[:, da - 1 : da], dense[:, da:]])
    size = basis.shape[1]

    def evaluate(omega: np.ndarray):
        """(omega, factors, sum_i log det omega_i, x) + ``tangent`` at x = L(omega)."""
        try:
            factor = np.linalg.cholesky(omega)
        except np.linalg.LinAlgError:
            return None
        x = problem.link(omega)
        log_det = 2.0 * float(np.sum(np.log(np.real(np.diagonal(factor, axis1=1, axis2=2)))))
        return (omega, factor, log_det, x) + problem.tangent(x)

    mu, iterations = BARRIER_START, 0
    here = evaluate(BOUNDARY_FRACTION * omega0 + (1.0 - BOUNDARY_FRACTION) * np.eye(da) / da)
    while True:
        omega, factor, log_det, x, value, c, g, spectral = here
        grad = problem.adjoint(g)
        if mu * da * da <= RECOVERY_GAP_TOL or iterations == maxiter:
            if best.score(omega, x, c, grad) or iterations == maxiter:
                return iterations
        iterations += 1
        inv_factor = np.linalg.inv(factor)
        inv = dagger(inv_factor) @ inv_factor
        slope = np.real((grad - mu * inv).reshape(da, -1) @ basis.conj()).reshape(-1)
        # mu tr(inv T_k inv T_l) = mu vec(T_k)^dag (inv x inv^T) vec(T_l), per slot.
        pair = (inv[:, :, None, :, None] * inv.mT[:, None, :, None, :]).reshape(da, da * da, da * da)
        hess = problem.hessian(spectral, basis)
        barrier_hess = mu * np.real(dagger(basis) @ pair @ basis)
        hess.reshape(da, size, da, size)[np.arange(da), :, np.arange(da), :] += barrier_hess
        move = np.linalg.solve(hess, -slope)
        decrement = -float(slope @ move)
        step = (move.reshape(da, size) @ basis.T).reshape(da, da, da)
        low = float(np.linalg.eigvalsh(inv_factor @ step @ dagger(inv_factor))[:, 0].min())
        alpha = 1.0 if low >= 0.0 else min(1.0, -BOUNDARY_FRACTION / low)
        barrier = value - mu * log_det
        while True:
            here = evaluate(omega + alpha * step)
            if here is not None and here[4] - mu * here[2] <= barrier - ARMIJO * alpha * decrement:
                break
            if alpha * np.max(np.abs(step)) <= NOISE_FLOOR:
                best.score(omega, x, c, grad)
                return iterations
            alpha *= 0.5
        if decrement <= mu:
            mu *= BARRIER_SHRINK


def recoverability(
    rho: BipartiteState,
    basis: Basis | None = None,
    metric: str = "trace",
    budget: int = 1,
    seed: int = 0,
    extra_candidates: tuple[KrausChannel, ...] = (),
    maxiter: int = 2000,
) -> dict:
    """Best recovery of dephasing on A: Delta_D with a certified lower bound.

    Minimizes D(rho, R_A(Phi_A(rho))) over CPTP channels R on A.  The
    dephased input is classical on A, so R enters only through the states
    omega_i = R(|i><i|) it prepares, and a measure-and-prepare channel
    attains the optimum.  The metric is convex in those d_A states, so one
    solve over them returns a CPTP recovery and a certificate: at the
    gradient g of an affine minorant c + tr(g X) of the metric, the bound is
    c + sum_i lambda_min(L^*(g)_i), the minorant's exact minimum over all
    recoveries.  The Petz channel, the identity and ``extra_candidates`` are
    always candidates, so ``value`` never exceeds ``petz_value``; both are
    reported no lower than 0, the least value of every metric.

    The optimum lies in [``lower_bound``, ``value``]; the bound is reported
    no higher than ``value``, which matters only where the metric's own
    evaluation is coarser than the bound (1 - F on a rank-deficient state
    takes square roots of rounding-level eigenvalues: the raw bound was
    seen up to 8e-11 above an exact recovery's value).  ``budget=0`` scores
    the fixed candidates only (``lower_bound`` 0, ``iterations`` 0); any
    ``budget >= 1`` runs one solve of at most ``maxiter`` Newton steps
    (``iterations``): ``_interior_point`` from a cold start for the trace
    metric, 8-14 steps on seeded 2 x 2 and 3 x 2 states; ``_barrier_newton``
    from the best candidate for the others, whose optima lie on the boundary
    of the states, 11-22 steps at d_A = 2 and 21-38 at d_A = 3.
    ``converged`` means the solve stopped with value - lower_bound <=
    RECOVERY_GAP_TOL, which a candidate within that of 0 meets after 0
    steps; a run that hits ``maxiter`` reports false with its wider bound.
    ``seed`` is accepted and unused: the solver is deterministic.
    ``channel`` is the best recovery as Kraus operators (sqrt(lambda) |v><i|
    over the eigenpairs of each omega_i), scored by the local action like
    every candidate, and returned in the caller's coordinates.
    """
    work = rho if basis is None else basis.to_coords_a(rho)
    dephased = BipartiteState._built(_dephase_a(work.state, *work.dims), *work.dims)
    problem = _RecoveryProblem(metric, work, dephased.state)

    def value_of(candidate: KrausChannel) -> float:
        return problem.distance_to(local_apply(candidate, dephased, "A").state)

    candidates = [_petz_channel(work.marginal("A")), identity_channel(work.dim_a), *extra_candidates]
    values = [value_of(candidate) for candidate in candidates]
    petz_value = values[0]
    best_value, best = min(zip(values, candidates), key=lambda pair: pair[0])

    lower_bound, iterations, converged = 0.0, 0, False
    if budget > 0:
        # Either solve stops once the best value (the best candidate's
        # counting as one) less the best bound is <= RECOVERY_GAP_TOL.
        incumbent = _Incumbent(problem, best_value)
        if metric == "trace":
            iterations = _interior_point(problem, incumbent, maxiter)
        else:
            iterations = _barrier_newton(problem, incumbent, _prepared_states(best.kraus), maxiter)
        omega, lower_bound, converged = incumbent.omega, incumbent.bound, incumbent.closed
        if omega is not None:
            found = KrausChannel._built(_measure_prepare_kraus(omega))
            v = value_of(found)
            if v < best_value:
                best_value, best = v, found

    value = max(0.0, best_value)
    return {
        "value": value,
        "lower_bound": min(max(0.0, lower_bound), value),
        "petz_value": max(0.0, petz_value),
        "channel": best if basis is None else KrausChannel._built(basis.from_coords(best.kraus)),
        "iterations": iterations,
        "converged": converged,
    }


def _unpermute_map(channel: KrausChannel) -> KrausChannel:
    """Channel memory x A -> A sending |mu>|pi_mu(i)> to |i>; inverts the
    conditional permutations of an SI channel once the outcome is recorded."""
    report = classify_channel(channel)
    if not report.strictly_incoherent:
        raise ChannelError("outcome unpermutation needs an SI channel")
    m = len(channel)
    d = channel.dim_in
    ops = np.zeros((m, d, m * d), dtype=complex)
    for mu, form in enumerate(report.kraus_forms):
        ops[mu, np.arange(d), mu * d + np.array(form.permutation)] = 1.0
    return KrausChannel._built(ops)


def memory_monotonicity_trial(
    rho: BipartiteState,
    channel: KrausChannel,
    metric: str = "trace",
    budget: int = 1,
    seed: int = 0,
) -> dict:
    """Recoverability before an SI channel on A versus after, with a memory.

    The channel is run outcome-recordingly: the memory register joins side A
    as a classical register, sum_mu |mu><mu| x E_mu(rho), so dephasing all
    of A = memory x system dephases only the system factor.  Both sides are
    solved by ``recoverability`` at its default cap of 2000 steps.  The
    recovery that replays the best pre-channel recovery after unpermuting
    the recorded outcome is always offered as a candidate, so after <= before
    holds up to rounding for any pre-channel recovery.  The register splits
    the trace metric's d_A = m * d solve into one block of A per outcome
    (see ``_interior_point``).  On the 20 trials of ``suite recover-memory --seed
    5`` that solve converged every time, in 9 to 14 Newton steps (9 to 16
    over the suite's 200 default trials).  The trial passes when
    after <= before + MEMORY_SLACK.  ``seed`` is accepted and unused.
    Each side's solver state is returned as well: ``before_lower_bound``,
    ``before_iterations``, ``before_converged`` and the same for ``after``.
    """
    before = recoverability(rho, metric=metric, budget=budget)
    mem = with_memory(channel)
    extended = local_apply(mem, rho, "A")
    replay = compose(mem, compose(before["channel"], _unpermute_map(channel)))
    after = recoverability(extended, metric=metric, budget=budget, extra_candidates=(replay,))
    out = {"before": before["value"], "after": after["value"], "pass": after["value"] <= before["value"] + MEMORY_SLACK}
    for side, res in (("before", before), ("after", after)):
        for key in ("lower_bound", "iterations", "converged"):
            out[f"{side}_{key}"] = res[key]
    return out
