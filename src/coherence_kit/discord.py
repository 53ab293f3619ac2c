"""Basis-dependent bipartite correlations and their recovery structure.

The dephasing basis always lives on side A.  All quantities are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    BipartiteState,
    ChannelError,
    KrausChannel,
    _local_branches,
    _pad_kraus,
    _unit_images,
    choi,
    compose,
    identity_channel,
    local_apply,
    with_memory,
)
from .coherence import Basis, classify_channel, classify_kraus, rel_ent_coherence
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
    dagger,
    dephase_subsystem,
    distance,
    entropy,
    ket,
    matrix_function,
    partial_trace,
    projector,
    tensor_product,
    trace_distance,
)
from .sampling import random_density_matrix, stream

LN2 = math.log(2.0)


def _dephase_a(rho: BipartiteState) -> BipartiteState:
    """Local dephasing of side A in the computational basis."""
    return BipartiteState(dephase_subsystem(rho.state, rho.dims, 0), rho.dim_a, rho.dim_b)


def mutual_information(rho: BipartiteState) -> float:
    """I(A:B) = S(A) + S(B) - S(AB), in bits."""
    return entropy(rho.marginal("A")) + entropy(rho.marginal("B")) - entropy(rho.state)


def classical_correlations(rho: BipartiteState, basis: Basis | None = None) -> float:
    """Mutual information surviving dephasing of A: J(B|A) = I(A:B) after Phi_A."""
    if basis is not None:
        rho = basis.to_coords_a(rho)
    return mutual_information(_dephase_a(rho))


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


def basis_discord(rho: BipartiteState, basis: Basis | None = None) -> DiscordReport:
    """Full correlation report: I, J, delta = I - J, C(A) and C(B|A).

    The conditional coherence is the entropy cost of dephasing A inside the
    joint state, C(B|A) = S(Phi_A(rho)) - S(rho); the identity
    delta = C(B|A) - C(A) is asserted as a numerical cross-check.
    """
    if basis is not None:
        rho = basis.to_coords_a(rho)
    dephased = _dephase_a(rho)
    i = mutual_information(rho)
    j = mutual_information(dephased)
    delta = i - j
    c_a = rel_ent_coherence(rho.marginal("A"))
    c_cond = entropy(dephased.state) - entropy(rho.state)
    if abs(delta - (c_cond - c_a)) > DISCORD_IDENTITY_TOL:
        raise InvariantError(
            f"discord identity violated: I - J = {delta:.3e}, "
            f"C(B|A) - C(A) = {c_cond - c_a:.3e}"
        )
    if delta < -NEGATIVE_DISCORD_TOL:
        raise InvariantError(f"negative discord {delta:.3e}")
    return DiscordReport(i, j, delta, c_a, c_cond)


def petz_channel(rho_a: np.ndarray, projectors: list[np.ndarray] | None = None) -> KrausChannel:
    """Transpose channel undoing dephasing on the marginal rho_a.

    Kraus operators rho_a^{1/2} P_i sigma^{-1/2} with sigma the dephased
    marginal and P_i the dephasing projectors (computational rank-one by
    default); the kernel projector of sigma is appended so the channel is
    trace-preserving on the whole space.
    """
    return KrausChannel(_petz_kraus(rho_a, projectors))


def _petz_kraus(rho_a: np.ndarray, projectors: list[np.ndarray] | None = None) -> np.ndarray:
    """Kraus stack of ``petz_channel``."""
    rho_a = np.asarray(rho_a, dtype=complex)
    d = rho_a.shape[0]
    if projectors is None:
        projectors = [projector(ket(i, d)) for i in range(d)]
    sigma = sum(p @ rho_a @ p for p in projectors)
    root = matrix_function(rho_a, "sqrt")
    inv_root = matrix_function(sigma, "inv_sqrt")
    return _pad_kraus(np.array([root @ p @ inv_root for p in projectors]))


def petz_recover(rho: BipartiteState, basis: Basis | None = None):
    """Petz recovery of dephasing on A: channel and the recovered state.

    Returns (channel acting on A, R_A(Phi_A(rho))).  When the basis discord
    vanishes the recovered state equals the input.
    """
    work = rho if basis is None else basis.to_coords_a(rho)
    ops = _petz_kraus(work.marginal("A"))
    recovered = BipartiteState(
        _local_branches(ops, _dephase_a(work).state, work.dims, "A").sum(axis=0), rho.dim_a, rho.dim_b
    )
    if basis is None:
        return KrausChannel(ops), recovered
    return KrausChannel(basis.from_coords(ops)), basis.from_coords_a(recovered)


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


def zero_discord_decompose(
    rho: BipartiteState, basis: Basis | None = None, tol: float = EQUAL_STATE_TOL
) -> ZeroDiscordDecomposition:
    """Split a zero-discord state into product blocks over disjoint supports.

    Two basis indices of A are linked when the corresponding off-diagonal
    B-block of the state is non-negligible; each connected group must then
    carry a product state.  The residual is the trace distance between the
    input and the reconstruction; success means residual <= tol.
    """
    work = rho if basis is None else basis.to_coords_a(rho)
    da, db = work.dims
    mat = work.state

    # Union-find over A indices linked by off-diagonal B-blocks.
    parent = list(range(da))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(da):
        for j in range(i + 1, da):
            block = mat[i * db : (i + 1) * db, j * db : (j + 1) * db]
            if np.max(np.abs(block)) > tol:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(da):
        groups.setdefault(find(i), []).append(i)

    blocks = []
    for members in groups.values():
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
    return BipartiteState(out, dim_a, dim_b)


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
    per Kraus outcome; passes when lhs <= rhs + MONOTONE_SLACK.
    """
    if kind not in ("J", "delta"):
        raise ValueError(f"kind must be 'J' or 'delta', got {kind!r}")
    kraus = channel.kraus if basis is None else basis.to_coords(channel.kraus)
    if not channel.trace_preserving or not all(classify_kraus(k).strictly_incoherent for k in kraus):
        raise ChannelError("ensemble monotonicity needs a trace-preserving SI channel")
    if basis is not None:
        rho = basis.to_coords_a(rho)

    def measure(state: BipartiteState) -> float:
        rep = basis_discord(state)
        return rep.classical_correlations if kind == "J" else rep.basis_discord

    rhs = measure(rho)
    lhs = 0.0
    for out in _local_branches(kraus, rho.state, rho.dims, "A"):
        p = float(np.real(np.trace(out)))
        if p <= NEGLIGIBLE_P:
            continue
        lhs += p * measure(BipartiteState(out / p, rho.dim_a, rho.dim_b))
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
    kraus = channel.kraus if basis is None else basis.to_coords(channel.kraus)
    diag = np.einsum("ijkk->ijk", _unit_images(kraus))
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
    j_before = classical_correlations(state)
    after = BipartiteState(_local_branches(kraus, mat, (d, 2), "A").sum(axis=0), channel.dim_out, 2)
    j_after = classical_correlations(after)
    if basis is not None:
        state = basis.from_coords_a(state)
    return state, phi, j_before, j_after


CERTIFY_EVERY = 10
# Trace metric: Z's dual step is this many times Y's, within the PDHG step rule.
Z_STEP_WEIGHT = 30.0
# Fidelity and relative entropy: first primal step times sqrt(d_A); the step
# then shrinks to SMOOTH_SHRINK / (local gradient Lipschitz estimate).
SMOOTH_STEP = 3.0
SMOOTH_SHRINK = 0.7


def _realign(x: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Regroup X[(a, k), (b, l)] on d1 x d2 as R[(a, b), (k, l)], shape (d1^2, d2^2)."""
    return x.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)


def _unrealign(r: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Inverse of ``_realign``."""
    return r.reshape(d1, d1, d2, d2).transpose(0, 2, 1, 3).reshape(d1 * d2, d1 * d2)


def _kraus_from_choi(j: np.ndarray, dim: int) -> np.ndarray:
    """Kraus stack sqrt(lambda_mu) v_mu, reshaped to (dim, dim), from the
    positive eigenpairs of a square channel's Choi matrix."""
    lam, v = np.linalg.eigh(j)
    keep = lam > 0.0
    return (v[:, keep] * np.sqrt(lam[keep])).T.reshape(-1, dim, dim)


def _spectral_map(m: np.ndarray, fn) -> np.ndarray:
    """V fn(Lambda) V^dag for a Hermitian m = V Lambda V^dag."""
    lam, v = np.linalg.eigh(m)
    return (v * fn(lam)) @ dagger(v)


class _RecoveryProblem:
    """D(rho, (R x id)(sigma)) as a convex function of the Choi matrix J of R.

    J = d_A choi(R): J[(a, i), (b, j)] = R(|i><j|)[a, b], output index first.
    It ranges over the CPTP set {J >= 0, Tr_out J = I}.  The link map
    L(J) = (R x id)(sigma) is one matmul: realigned, J is (d_A^2, d_A^2) and
    sigma is (d_A^2, d_B^2).  ``minorant`` gives an affine c + tr(g X) below
    the metric on all states X; weak duality then bounds the optimum.
    """

    def __init__(self, metric: str, rho: np.ndarray, sigma: np.ndarray, dims: tuple[int, int]):
        self.metric, self.rho = metric, rho
        self.da, self.db = dims
        self.s = _realign(sigma, self.da, self.db)
        self.s_dag = dagger(self.s)
        self.eye_a = np.eye(self.da)
        self._blocks = self.eye_a[:, None, :, None]
        if metric == "one_minus_fidelity":
            lam, v = np.linalg.eigh(rho)
            keep = lam > SUPPORT_CUTOFF
            v = v[:, keep]
            self.root = (v * np.sqrt(lam[keep])) @ dagger(v)
            self.support = v @ dagger(v)
        elif metric == "rel_ent":
            self.neg_entropy = -entropy(rho)

    def link(self, j: np.ndarray) -> np.ndarray:
        return _unrealign(_realign(j, self.da, self.da) @ self.s, self.da, self.db)

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """L^*(g): tr(g L(J)) = tr(L^*(g) J)."""
        return _unrealign(_realign(g, self.da, self.db) @ self.s_dag, self.da, self.da)

    def out_trace(self, j: np.ndarray) -> np.ndarray:
        return j.reshape(self.da, self.da, self.da, self.da).trace(axis1=0, axis2=2)

    def lift(self, y: np.ndarray) -> np.ndarray:
        """I_out x Y, the adjoint of Tr_out."""
        return (self._blocks * y[None, :, None, :]).reshape(self.da**2, self.da**2)

    def trace_preserving(self, j: np.ndarray) -> np.ndarray | None:
        """(I x T^{-1/2}) J (I x T^{-1/2}) with T = Tr_out J: exactly trace
        preserving; None when T is singular."""
        lam, v = np.linalg.eigh(self.out_trace(j))
        if lam[0] <= SUPPORT_CUTOFF:
            return None
        side = self.lift((v / np.sqrt(lam)) @ dagger(v))
        return side @ j @ side

    def minorant(self, x: np.ndarray, z: np.ndarray) -> tuple[float, np.ndarray]:
        """(c, g) with c + tr(g X) <= D(rho, X) for every state X.

        Trace: (tr(z rho)/2, -z/2) for the dual iterate z, ||z|| <= 1.
        Fidelity: Alberti's F(rho, X) <= (tr(rho W^{-1}) + tr(X W))/2 with
        W = sqrt(rho) A^{-1/2} sqrt(rho), A = sqrt(rho) x sqrt(rho), so
        equality holds at x.  Relative entropy: the tangent at x, its
        spectrum floored at SUPPORT_CUTOFF so that the point is positive
        definite.
        """
        if self.metric == "trace":
            return 0.5 * float(np.real(np.vdot(z, self.rho))), -0.5 * z
        if self.metric == "one_minus_fidelity":
            a, v = np.linalg.eigh(self.root @ x @ self.root)
            a = np.maximum(a, NOISE_FLOOR * max(1.0, float(a[-1])))
            in_support = np.real(np.einsum("ik,ij,jk->k", v.conj(), self.support, v))
            w = self.root @ ((v / np.sqrt(a)) @ dagger(v)) @ self.root
            return 1.0 - 0.5 * float(np.sum(np.sqrt(a) * in_support)), -0.5 * w
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
        return value + 1.0 / LN2, g

    def lower_bound(self, c: float, g: np.ndarray, y: np.ndarray) -> float:
        """c + min over CPTP J of tr(L^*(g) J) >= c + tr Y + d_A lambda_min(L^*(g) - I x Y),
        less the rounding of its terms, so that it holds in floating point."""
        lam = np.linalg.eigvalsh(self.adjoint(g) - self.lift(y))
        trace_y = float(np.real(np.trace(y)))
        slack = NOISE_FLOOR * (abs(c) + abs(trace_y) + self.da * max(-lam[0], lam[-1]))
        return c + trace_y + self.da * float(lam[0]) - slack


def _solve_recovery(problem: _RecoveryProblem, j0: np.ndarray, upper: float, maxiter: int):
    """Primal-dual descent over CPTP Choi matrices, started at j0.

    The trace metric is the saddle point min_J max_{||Z||<=1, Y}
    tr Z(rho - L(J))/2 + tr Y(I - Tr_out J), run as Chambolle-Pock PDHG;
    fidelity and relative entropy put their gradient at L(J) in place of the
    Z term (Condat-Vu).  Every CERTIFY_EVERY iterations the iterate is made
    trace-preserving and scored, and the duality bound is taken.  Stops once
    best value - best bound <= RECOVERY_GAP_TOL, ``upper`` (the best known
    candidate) counting as a value, or after ``maxiter`` iterations.

    Returns (best trace-preserving J or None, lower bound, iterations, converged).
    """
    da = problem.da
    trace_metric = problem.metric == "trace"
    if trace_metric:
        norm_l = float(np.linalg.norm(problem.s, 2))
        tau = da / math.sqrt(norm_l**2 + da)
        s_y = 0.99 / (tau * (Z_STEP_WEIGHT * norm_l**2 + da))
        z = _spectral_map(problem.rho - problem.link(j0), np.sign)
    else:
        tau = SMOOTH_STEP / math.sqrt(da)
        s_y = 0.5 / (tau * da)
        z = None
    j = j0
    # Complementary slackness (G - I x Y) J = 0 gives Y = Tr_out(G J) at a
    # solution; start the multiplier there for the gradient G at j0.
    g0 = problem.adjoint(problem.minorant(problem.link(j0), z)[1])
    y = problem.out_trace(g0 @ j0)
    y = (y + dagger(y)) / 2.0
    best_j, best_value, best_bound = None, upper, -math.inf
    previous = None
    iterations = 0
    while True:
        if iterations % CERTIFY_EVERY == 0 or iterations >= maxiter:
            tp = problem.trace_preserving(j)
            x = problem.link(j if tp is None else tp)
            if tp is not None:
                value = distance(problem.metric, problem.rho, x)
                if value < best_value:
                    best_j, best_value = tp, value
            best_bound = max(best_bound, problem.lower_bound(*problem.minorant(x, z), y))
            if best_value - best_bound <= RECOVERY_GAP_TOL or iterations >= maxiter:
                break
        if trace_metric:
            grad = -0.5 * problem.adjoint(z)
        else:
            grad = problem.adjoint(problem.minorant(problem.link(j), None)[1])
            if previous is not None:
                step = np.linalg.norm(j - previous[0])
                lipschitz = np.linalg.norm(grad - previous[1]) / step if step > 0 else 0.0
                if tau * lipschitz > 1.0:
                    # The last step outran the local curvature: redo it shorter.
                    tau = SMOOTH_SHRINK / lipschitz
                    s_y = 0.5 / (tau * da)
                    j, grad, y = previous
            previous = (j, grad, y)
        j_next = _spectral_map(j - tau * (grad - problem.lift(y)), lambda lam: np.maximum(lam, 0.0))
        j_bar = 2.0 * j_next - j
        if trace_metric:
            z = _spectral_map(
                z + 0.5 * Z_STEP_WEIGHT * s_y * (problem.rho - problem.link(j_bar)),
                lambda lam: np.clip(lam, -1.0, 1.0),
            )
        y = y + s_y * (problem.eye_a - problem.out_trace(j_bar))
        j = j_next
        iterations += 1
    return best_j, best_bound, iterations, best_value - best_bound <= RECOVERY_GAP_TOL


def recoverability(
    rho: BipartiteState,
    basis: Basis | None = None,
    metric: str = "trace",
    budget: int = 8,
    seed: int = 0,
    dephase_dims: tuple[int, int] | None = None,
    extra_candidates: tuple[KrausChannel, ...] = (),
    maxiter: int = 2000,
) -> dict:
    """Best recovery of dephasing on A: Delta_D with a certified lower bound.

    Minimizes D(rho, R_A(Phi_A(rho))) over CPTP channels R on A.  The metric
    is convex in R's Choi matrix J, so one primal-dual solve over J
    (``_solve_recovery``), warm-started at the Petz channel, returns a
    CPTP recovery and a weak-duality bound.  The Petz channel, the identity
    and ``extra_candidates`` are always candidates, so ``value`` never
    exceeds ``petz_value``.  When ``dephase_dims = (m, d)`` the A side
    factors as memory x system and only the system factor is dephased.

    The optimum lies in [``lower_bound``, ``value``]; the bound is reported
    no higher than ``value``, which matters only where the metric's own
    evaluation is coarser than the bound (1 - F on a rank-deficient state
    takes square roots of rounding-level eigenvalues: the raw bound was
    seen up to 8e-11 above an exact recovery's value).  ``budget=0`` scores
    the fixed candidates only (``lower_bound`` 0, ``optimized`` false);
    ``budget >= 1`` runs one solve of at most ``maxiter`` iterations
    (``iterations`` says how many).  ``converged`` means the solve stopped
    with value - lower_bound <= RECOVERY_GAP_TOL; a run that hits
    ``maxiter`` reports false with its wider bound.  ``seed`` is accepted
    and unused: the solver is deterministic.  ``channel`` is the best
    recovery as Kraus operators (from the eigendecomposition of J, made
    exactly trace-preserving), scored by the local-action kernel like every
    candidate, and returned in the caller's coordinates.
    """
    work = rho if basis is None else basis.to_coords_a(rho)
    da, db = work.dims
    sigma, petz = _recovery_setup(work, dephase_dims)
    target = work.state

    def value_ops(ops: np.ndarray) -> float:
        recovered = _local_branches(ops, sigma, (da, db), "A").sum(axis=0)
        return distance(metric, target, recovered)

    petz_value = value_ops(petz.kraus)
    best_value, best_ops = petz_value, petz.kraus
    for cand in (identity_channel(da),) + tuple(extra_candidates):
        v = value_ops(cand.kraus)
        if v < best_value:
            best_value, best_ops = v, cand.kraus

    lower_bound, iterations, converged = 0.0, 0, False
    if budget > 0:
        problem = _RecoveryProblem(metric, target, sigma, (da, db))
        start = da * choi(petz)
        if math.isinf(petz_value):
            # Relative entropy when rho leaks out of the Petz output's support:
            # half identity puts the start back inside supp Phi_A(rho).
            start = 0.5 * (start + da * choi(identity_channel(da)))
        j, lower_bound, iterations, converged = _solve_recovery(problem, start, best_value, maxiter)
        if j is not None:
            ops = _kraus_from_choi(j, da)
            v = value_ops(ops)
            if v < best_value:
                best_value, best_ops = v, ops

    value = max(0.0, best_value)
    return {
        "value": value,
        "lower_bound": min(max(0.0, lower_bound), value),
        "petz_value": petz_value,
        "channel": KrausChannel(best_ops if basis is None else basis.from_coords(best_ops)),
        "iterations": iterations,
        "optimized": budget > 0,
        "converged": converged,
    }


def _recovery_setup(work: BipartiteState, dephase_dims: tuple[int, int] | None):
    """Dephased state (as a matrix) and Petz channel of a recovery problem in
    computational coordinates."""
    da, db = work.dims
    if dephase_dims is None:
        return _dephase_a(work).state, petz_channel(work.marginal("A"))
    m, d = dephase_dims
    if m * d != da:
        raise ValueError("dephase_dims do not factor side A")
    projectors = [tensor_product(np.eye(m, dtype=complex), projector(ket(i, d))) for i in range(d)]
    sigma = dephase_subsystem(work.state, (m, d, db), 1)
    return sigma, petz_channel(work.marginal("A"), projectors)


def _unpermute_map(channel: KrausChannel) -> KrausChannel:
    """Channel memory x A -> A sending |mu>|pi_mu(i)> to |i>; inverts the
    conditional permutations of an SI channel once the outcome is recorded."""
    report = classify_channel(channel)
    if not report.strictly_incoherent:
        raise ChannelError("outcome unpermutation needs an SI channel")
    m = len(channel)
    d = channel.dim_in
    ops = []
    for mu, form in enumerate(report.kraus_forms):
        t = np.zeros((d, m * d), dtype=complex)
        for i in range(d):
            t[i, mu * d + form.permutation[i]] = 1.0
        ops.append(t)
    return KrausChannel(tuple(ops))


def memory_monotonicity_trial(
    rho: BipartiteState,
    channel: KrausChannel,
    metric: str = "trace",
    budget: int = 4,
    seed: int = 0,
) -> dict:
    """Recoverability before an SI channel on A versus after, with a memory.

    The channel is run outcome-recordingly (memory register joins side A);
    dephasing still acts on the system factor only.  Both sides are solved
    by ``recoverability`` (certified, at its default 2000-iteration cap;
    the d_A = m * d side may stop at the cap with a wider bound).  The
    recovery that replays the best pre-channel recovery after unpermuting
    the recorded outcome is always offered as a candidate, so after <= before
    holds up to rounding for any pre-channel recovery; the trial passes when
    after <= before + MEMORY_SLACK.  ``seed`` is passed on and unused.
    """
    before = recoverability(rho, metric=metric, budget=budget, seed=seed)
    mem = with_memory(channel)
    extended = local_apply(mem, rho, "A")
    m = len(channel)
    replay = compose(mem, compose(before["channel"], _unpermute_map(channel)))
    after = recoverability(
        extended,
        metric=metric,
        budget=budget,
        seed=seed + 1,
        dephase_dims=(m, channel.dim_in),
        extra_candidates=(replay,),
    )
    return {
        "before": before["value"],
        "after": after["value"],
        "pass": after["value"] <= before["value"] + MEMORY_SLACK,
    }
