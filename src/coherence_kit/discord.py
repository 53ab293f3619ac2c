"""Basis-dependent bipartite correlations and their recovery structure.

The dephasing basis always lives on side A.  All quantities are in bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channels import (
    BipartiteState,
    ChannelError,
    KrausChannel,
    _local_branches,
    compose,
    identity_channel,
    local_apply,
    local_branches,
    pad_trace_preserving,
    unit_images,
    with_memory,
)
from .coherence import Basis, classify_channel, rel_ent_coherence
from .linalg import (
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

NEGLIGIBLE_P = 1e-12
EQUAL_STATE_TOL = 1e-7
WITNESS_TOL = 1e-8
TIE_RTOL = 1e-12


def _dephase_a(rho: BipartiteState, basis: Basis | None = None) -> BipartiteState:
    """Local dephasing of side A in the given basis."""
    if basis is None or basis.is_computational():
        out = dephase_subsystem(rho.state, rho.dims, 0)
    else:
        u = tensor_product(basis.columns, np.eye(rho.dim_b))
        coords = dagger(u) @ rho.state @ u
        out = u @ dephase_subsystem(coords, rho.dims, 0) @ dagger(u)
    return BipartiteState(out, rho.dim_a, rho.dim_b)


def _rotate_a(rho: BipartiteState, basis: Basis) -> BipartiteState:
    """Coordinates of the state in which the A basis is computational."""
    u = tensor_product(basis.columns, np.eye(rho.dim_b))
    return BipartiteState(dagger(u) @ rho.state @ u, rho.dim_a, rho.dim_b)


def mutual_information(rho: BipartiteState) -> float:
    """I(A:B) = S(A) + S(B) - S(AB), in bits."""
    return entropy(rho.marginal("A")) + entropy(rho.marginal("B")) - entropy(rho.state)


def classical_correlations(rho: BipartiteState, basis: Basis | None = None) -> float:
    """Mutual information surviving dephasing of A: J(B|A) = I(A:B) after Phi_A."""
    return mutual_information(_dephase_a(rho, basis))


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
    i = mutual_information(rho)
    j = classical_correlations(rho, basis)
    delta = i - j
    c_a = rel_ent_coherence(rho.marginal("A"), basis)
    c_cond = entropy(_dephase_a(rho, basis).state) - entropy(rho.state)
    if abs(delta - (c_cond - c_a)) > 1e-6:
        raise InvariantError(
            f"discord identity violated: I - J = {delta:.3e}, "
            f"C(B|A) - C(A) = {c_cond - c_a:.3e}"
        )
    if delta < -1e-9:
        raise InvariantError(f"negative discord {delta:.3e}")
    return DiscordReport(i, j, delta, c_a, c_cond)


def petz_channel(rho_a: np.ndarray, projectors: list[np.ndarray] | None = None) -> KrausChannel:
    """Transpose channel undoing dephasing on the marginal rho_a.

    Kraus operators rho_a^{1/2} P_i sigma^{-1/2} with sigma the dephased
    marginal and P_i the dephasing projectors (computational rank-one by
    default); the kernel projector of sigma is appended so the channel is
    trace-preserving on the whole space.
    """
    rho_a = np.asarray(rho_a, dtype=complex)
    d = rho_a.shape[0]
    if projectors is None:
        projectors = [projector(ket(i, d)) for i in range(d)]
    sigma = sum(p @ rho_a @ p for p in projectors)
    root = matrix_function(rho_a, "sqrt")
    inv_root = matrix_function(sigma, "inv_sqrt")
    return pad_trace_preserving(KrausChannel(tuple(root @ p @ inv_root for p in projectors)))


def petz_recover(rho: BipartiteState, basis: Basis | None = None):
    """Petz recovery of dephasing on A: channel and the recovered state.

    Returns (channel acting on A, R_A(Phi_A(rho))).  When the basis discord
    vanishes the recovered state equals the input.
    """
    work = rho if basis is None or basis.is_computational() else _rotate_a(rho, basis)
    channel = petz_channel(work.marginal("A"))
    recovered = local_apply(channel, _dephase_a(work), "A")
    if basis is not None and not basis.is_computational():
        u = basis.columns
        channel = KrausChannel(basis.from_coords(channel.kraus))
        ub = tensor_product(u, np.eye(rho.dim_b))
        recovered = BipartiteState(ub @ recovered.state @ dagger(ub), rho.dim_a, rho.dim_b)
    return channel, recovered


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
    work = rho if basis is None or basis.is_computational() else _rotate_a(rho, basis)
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
        idx = np.array(
            [i * db + b for i in members for b in range(db)], dtype=int
        )
        sub = mat[np.ix_(idx, idx)]
        p = float(np.real(np.trace(sub)))
        if p <= NEGLIGIBLE_P:
            continue
        sub_state = sub / p
        n = len(members)
        a_part = partial_trace(sub_state, (n, db), "A")
        b_part = partial_trace(sub_state, (n, db), "B")
        a_full = np.zeros((da, da), dtype=complex)
        for r, i in enumerate(members):
            for c, j in enumerate(members):
                a_full[i, j] = a_part[r, c]
        blocks.append((p, a_full, b_part, frozenset(members)))

    decomp = ZeroDiscordDecomposition(False, tuple(blocks), 0.0)
    residual = trace_distance(mat, decomp.reconstruct(da, db))
    success = residual <= tol
    out_blocks = decomp.blocks
    if basis is not None and not basis.is_computational():
        u = basis.columns
        out_blocks = tuple((p, u @ a @ dagger(u), b, s) for p, a, b, s in out_blocks)
    return ZeroDiscordDecomposition(success, out_blocks, residual)


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
        for r, i in enumerate(members):
            for c, j in enumerate(members):
                a_full[i, j] = small[r, c]
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
    per Kraus outcome; passes when lhs <= rhs + 1e-8.
    """
    if kind not in ("J", "delta"):
        raise ValueError(f"kind must be 'J' or 'delta', got {kind!r}")
    report = classify_channel(channel, basis)
    if not report.strictly_incoherent or not channel.trace_preserving:
        raise ChannelError("ensemble monotonicity needs a trace-preserving SI channel")

    def measure(state: BipartiteState) -> float:
        rep = basis_discord(state, basis)
        return rep.classical_correlations if kind == "J" else rep.basis_discord

    rhs = measure(rho)
    lhs = 0.0
    for out in local_branches(channel, rho, "A"):
        p = float(np.real(np.trace(out)))
        if p <= NEGLIGIBLE_P:
            continue
        lhs += p * measure(BipartiteState(out / p, rho.dim_a, rho.dim_b))
    return {"lhs": lhs, "rhs": rhs, "pass": lhs <= rhs + 1e-8}


def j_increase_witness(channel: KrausChannel, basis: Basis | None = None):
    """State on which an incoherent-but-not-SI channel raises J(B|A).

    Scans the images tau = E(|i><j|), i != j, for a nonzero diagonal element
    tau_kk (all in basis coordinates), then pairs |phi> = (|i> + e^{i phi}|j>)
    /sqrt(2) with a qubit flag so that J is zero before the channel and
    positive after.  The witness is the first (i, j, k) in row-major order
    whose |tau_kk| is within a relative 1e-12 of the largest, so exact ties
    (mirror pairs, equal overlaps) do not fall to float noise.  Raises when
    no such element exists (the channel commutes with dephasing).
    """
    d = channel.dim_in
    if basis is None or basis.is_computational():
        diag = np.einsum("ijkk->ijk", unit_images(channel))
    else:
        cols = basis.columns
        diag = np.einsum("ak,ijab,bk->ijk", cols.conj(), unit_images(channel, cols), cols)
    mag = np.abs(diag)
    mag[np.arange(d), np.arange(d)] = 0.0
    top = float(mag.max())
    if top <= WITNESS_TOL:
        raise ChannelError("no dephasing-commutation violation: channel looks SI")
    i, j, k = np.unravel_index(np.argmax(mag >= top * (1.0 - TIE_RTOL)), mag.shape)
    tkk = diag[i, j, k]
    phi = float(np.angle(tkk))
    vec = (ket(i, d) + np.exp(1j * phi) * ket(j, d)) / np.sqrt(2)
    mat = 0.5 * tensor_product(projector(vec), projector(ket(0, 2))) + 0.25 * tensor_product(
        projector(ket(i, d)) + projector(ket(j, d)), projector(ket(1, 2))
    )
    state = BipartiteState(mat, d, 2)
    if basis is not None and not basis.is_computational():
        u = tensor_product(basis.columns, np.eye(2))
        state = BipartiteState(u @ state.state @ dagger(u), d, 2)
    j_before = classical_correlations(state, basis)
    after = local_apply(channel, state, "A")
    j_after = classical_correlations(after, basis)
    return state, phi, j_before, j_after


def _stinespring_chart(dim: int, ancilla: int):
    """Stinespring chart: real vector -> Hermitian generator -> unitary on
    system x ancilla -> Kraus stack K_mu = (I x <mu|) U (I x |0>), shaped
    ``(ancilla, dim, dim)``.  The generator's index arrays are built once."""
    from scipy.linalg import expm

    n = dim * ancilla
    iu = np.triu_indices(n, 1)
    diag = np.diag_indices(n)
    m = len(iu[0])

    def kraus(theta: np.ndarray) -> np.ndarray:
        h = np.zeros((n, n), dtype=complex)
        h[iu] = theta[:m] + 1j * theta[m : 2 * m]
        h = h + dagger(h)
        h[diag] = theta[2 * m :]
        return expm(1j * h).reshape(dim, ancilla, dim, ancilla)[:, :, :, 0].transpose(1, 0, 2)

    return kraus


def _channel_to_params(channel: KrausChannel, ancilla: int) -> np.ndarray:
    """Inverse chart seed: embed the Kraus stack as the first block-column of
    a unitary, complete it, and take the matrix logarithm's parameters."""
    from scipy.linalg import logm

    dim = channel.dim_in
    n = dim * ancilla
    u = np.zeros((n, n), dtype=complex)
    for i in range(dim):
        col = np.zeros(n, dtype=complex)
        for mu, k in enumerate(channel.kraus[:ancilla]):
            col.reshape(dim, ancilla)[:, mu] = k[:, i]
        u[:, i * ancilla] = col
    cols = [u[:, i * ancilla] for i in range(dim)]
    basis_cols = list(cols)
    for j in range(n):
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        for c in basis_cols:
            v = v - c * np.vdot(c, v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis_cols.append(v / norm)
        if len(basis_cols) == n:
            break
    full = np.zeros((n, n), dtype=complex)
    extra = iter(basis_cols[dim:])
    for i in range(dim):
        full[:, i * ancilla] = cols[i]
        for mu in range(1, ancilla):
            full[:, i * ancilla + mu] = next(extra)
    h = logm(full) / 1j
    h = (h + dagger(h)) / 2.0
    m = n * (n - 1) // 2
    iu = np.triu_indices(n, 1)
    theta = np.concatenate([np.real(h[iu]), np.imag(h[iu]), np.real(np.diag(h))])
    return theta


def recoverability(
    rho: BipartiteState,
    basis: Basis | None = None,
    metric: str = "trace",
    budget: int = 8,
    seed: int = 0,
    ancilla: int | None = None,
    dephase_dims: tuple[int, int] | None = None,
    extra_candidates: tuple[KrausChannel, ...] = (),
    max_params: int = 160,
    maxiter: int = 2000,
) -> dict:
    """Best found recovery of dephasing on A: Delta_D as an upper bound.

    Minimizes D(rho, R_A(Phi_A(rho))) over trace-preserving channels on A
    through a Stinespring chart (unitary on A x ancilla from a Hermitian
    generator) with simplex descent, seeded at the Petz channel and at
    budget - 1 random points.  The Petz channel itself is always kept as a
    candidate, so the result never exceeds the Petz value.  When
    ``dephase_dims = (m, d)`` the A side factors as memory x system and
    only the system factor is dephased.

    Besides ``value``, ``petz_value`` and the best ``channel``, the result
    says whether Nelder-Mead ran at all (``optimized``) and whether it ran
    and every run reported success (``converged``).  ``optimized`` is false
    for ``budget=0``, for more than ``max_params`` chart parameters, and for
    ``budget=1`` when the Petz channel cannot be charted (its embedding
    cannot be completed to a unitary, or the matrix logarithm fails), since
    the Petz start is then the only one and it is dropped.
    """
    work = rho if basis is None or basis.is_computational() else _rotate_a(rho, basis)
    da, db = work.dims

    if dephase_dims is None:
        sigma = _dephase_a(work)
        projectors = None
    else:
        m, d = dephase_dims
        if m * d != da:
            raise ValueError("dephase_dims do not factor side A")
        sigma = BipartiteState(
            dephase_subsystem(work.state, (m, d, db), 1), da, db
        )
        projectors = [
            tensor_product(np.eye(m, dtype=complex), projector(ket(i, d))) for i in range(d)
        ]

    petz = petz_channel(work.marginal("A"), projectors)

    sigma_mat = sigma.state
    target = work.state

    def value_ops(ops: np.ndarray) -> float:
        recovered = _local_branches(ops, sigma_mat, (da, db), "A").sum(axis=0)
        return distance(metric, target, recovered)

    petz_value = value_ops(petz.kraus)
    best_value = petz_value
    best_channel = petz
    for cand in (identity_channel(da),) + tuple(extra_candidates):
        v = value_ops(cand.kraus)
        if v < best_value:
            best_value, best_channel = v, cand

    anc = ancilla if ancilla is not None else da * da
    n_params = (da * anc) ** 2
    successes = []
    if n_params <= max_params and budget > 0:
        chart = _stinespring_chart(da, anc)

        def objective(theta):
            return value_ops(chart(theta))

        rng = stream(seed, 53, da, db)
        starts = []
        try:
            starts.append(_channel_to_params(petz, anc))
        except (StopIteration, np.linalg.LinAlgError):
            pass
        for _ in range(max(0, budget - 1)):
            starts.append(rng.normal(scale=0.5, size=n_params))
        for x0 in starts:
            res = minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={"maxiter": maxiter, "xatol": 1e-8, "fatol": 1e-10},
            )
            successes.append(bool(res.success))
            if res.fun < best_value:
                best_value = float(res.fun)
                best_channel = KrausChannel(chart(res.x))

    if basis is not None and not basis.is_computational():
        best_channel = KrausChannel(basis.from_coords(best_channel.kraus))
    return {
        "value": max(0.0, best_value),
        "petz_value": petz_value,
        "channel": best_channel,
        "optimized": bool(successes),
        "converged": bool(successes) and all(successes),
    }


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
    dephasing still acts on the system factor only.  Passes when
    after <= before + 1e-4 of optimizer slack.  The recovery that replays
    the best pre-channel recovery after unpermuting the recorded outcome is
    always offered as a candidate, which makes the bound feasible.
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
        ancilla=m * channel.dim_in,
    )
    return {
        "before": before["value"],
        "after": after["value"],
        "pass": after["value"] <= before["value"] + 1e-4,
    }
