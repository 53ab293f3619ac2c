import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm
from scipy.optimize import minimize

from coherence_kit import discord
from coherence_kit.channels import (
    BipartiteState,
    ChannelError,
    KrausChannel,
    local_apply,
    local_branches,
    pad_trace_preserving,
    with_memory,
)
from coherence_kit.coherence import (
    Basis,
    dephase,
    random_incoherent_not_si_channel,
    random_si_channel,
    rel_ent_coherence,
)
from coherence_kit.discord import (
    _prepared_states,
    _project_states,
    _RecoveryProblem,
    basis_discord,
    classical_correlations,
    delta_creation_demo,
    ensemble_monotonicity_trial,
    j_increase_witness,
    memory_monotonicity_trial,
    mutual_information,
    petz_recover,
    random_zero_discord_state,
    recoverability,
    zero_discord_decompose,
    zero_discord_example,
)
from coherence_kit.linalg import (
    METRICS,
    InvariantError,
    dagger,
    dephase_subsystem,
    distance,
    entropy,
    ket,
    matrix_function,
    projector,
    relative_entropy,
    tensor_product,
    trace_distance,
)
from coherence_kit.sampling import random_density_matrix, random_pure_state, random_unitary, stream


def product_state(da, db, seed=0):
    rng = stream(79, da, db, seed)
    return BipartiteState(
        tensor_product(random_density_matrix(da, rng), random_density_matrix(db, rng)), da, db
    )


def bell_pair():
    v = (ket(0, 4) + ket(3, 4)) / np.sqrt(2)
    return BipartiteState(projector(v), 2, 2)


def classically_correlated():
    mat = 0.5 * tensor_product(projector(ket(0, 2)), projector(ket(0, 2))) + 0.5 * tensor_product(
        projector(ket(1, 2)), projector(ket(1, 2))
    )
    return BipartiteState(mat, 2, 2)


def test_mutual_information_anchors():
    assert mutual_information(product_state(2, 3)) == pytest.approx(0.0, abs=1e-9)
    assert mutual_information(bell_pair()) == pytest.approx(2.0, abs=1e-9)
    assert mutual_information(zero_discord_example()) == pytest.approx(1.0, abs=1e-9)


def test_classical_correlations_anchors():
    assert classical_correlations(product_state(2, 2)) == pytest.approx(0.0, abs=1e-9)
    assert classical_correlations(classically_correlated()) == pytest.approx(1.0, abs=1e-9)


def test_discord_report_zero_discord_example():
    rep = basis_discord(zero_discord_example())
    assert rep.mutual_information == pytest.approx(1.0, abs=1e-9)
    assert rep.classical_correlations == pytest.approx(1.0, abs=1e-9)
    assert rep.basis_discord == pytest.approx(0.0, abs=1e-9)
    assert rep.local_coherence == pytest.approx(0.5, abs=1e-9)
    assert rep.conditional_coherence == pytest.approx(0.5, abs=1e-9)


def test_discord_identity_on_random_states():
    for t in range(30):
        rng = stream(83, t)
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        rho = BipartiteState(random_density_matrix(da * db, rng), da, db)
        rep = basis_discord(rho)  # internal asserts check delta = I - J = C(B|A) - C(A)
        assert rep.basis_discord >= -1e-9


def test_discord_zero_for_product_states():
    assert basis_discord(product_state(3, 2)).basis_discord == pytest.approx(0.0, abs=1e-9)


def test_delta_creation_value():
    demo = delta_creation_demo()
    assert demo["before"] == pytest.approx(0.0, abs=1e-9)
    assert demo["after"] == pytest.approx(0.1887, abs=5e-4)


def _simplex_grid(n: int, steps: int):
    if n == 1:
        yield (1.0,)
        return
    for k in range(steps + 1):
        for rest in _simplex_grid(n - 1, steps - k):
            yield (k / steps,) + tuple(r * (steps - k) / steps for r in rest)


def conditional_coherence_bruteforce(rho: BipartiteState, grid: int = 24) -> float:
    """Direct minimization of S(rho || chi) over incoherent-quantum states chi.

    Grid over diagonal weights with conditional B states taken from the
    dephased input; a test oracle for the closed form at tiny sizes.
    """
    da, db = rho.dims
    sigma = dephase_subsystem(rho.state, rho.dims, 0)
    conds = []
    for i in range(da):
        block = sigma[i * db : (i + 1) * db, i * db : (i + 1) * db]
        p = float(np.real(np.trace(block)))
        conds.append(block / p if p > 1e-12 else np.eye(db) / db)
    best = np.inf
    for w in _simplex_grid(da, grid):
        chi = np.zeros_like(sigma)
        for i in range(da):
            chi[i * db : (i + 1) * db, i * db : (i + 1) * db] = w[i] * conds[i]
        if min(w) <= 0:
            continue
        best = min(best, relative_entropy(rho.state, chi))
    return best


def test_conditional_coherence_closed_form_matches_bruteforce():
    for t in range(5):
        rng = stream(89, t)
        rho = BipartiteState(random_density_matrix(4, rng), 2, 2)
        rep = basis_discord(rho)
        brute = conditional_coherence_bruteforce(rho, grid=60)
        # The brute force grid minimizes S(rho||chi) over IQ states chi;
        # C(B|A) is its exact value, the grid only approaches from above.
        assert brute >= rep.conditional_coherence - 1e-9
        assert brute - rep.conditional_coherence < 2e-3


def test_petz_recovers_zero_discord_states():
    _, rec = petz_recover(zero_discord_example())
    assert trace_distance(rec.state, zero_discord_example().state) < 1e-8
    # Already-dephased inputs are fixed points.
    iq = classically_correlated()
    _, rec = petz_recover(iq)
    assert trace_distance(rec.state, iq.state) < 1e-8


def test_petz_fails_on_positive_discord():
    mixed = delta_creation_demo()["state"]
    _, rec = petz_recover(mixed)
    assert trace_distance(rec.state, mixed.state) > 0.01


def test_petz_channel_is_trace_preserving():
    ch, _ = petz_recover(zero_discord_example())
    assert ch.trace_preserving


def test_zero_discord_decompose_rejects_bad_tolerance():
    rho = zero_discord_example()
    assert zero_discord_decompose(rho).success
    for tol in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(ValueError, match="tolerance"):
            zero_discord_decompose(rho, tol=tol)


def test_zero_discord_decompose_example_blocks():
    dec = zero_discord_decompose(zero_discord_example())
    assert dec.success and dec.residual < 1e-10
    supports = sorted(sorted(s) for _, _, _, s in dec.blocks)
    assert supports == [[0, 1], [2]]
    weights = sorted(p for p, _, _, _ in dec.blocks)
    assert weights == pytest.approx([0.5, 0.5], abs=1e-10)


def test_zero_discord_decompose_product_state_single_block():
    dec = zero_discord_decompose(product_state(3, 2))
    assert dec.success and len(dec.blocks) == 1


def test_zero_discord_decompose_fails_on_discordant_state():
    dec = zero_discord_decompose(delta_creation_demo()["state"])
    assert not dec.success and dec.residual > 1e-3


def test_three_way_equivalence_planted_and_random():
    agree = 0
    for t in range(40):
        rng = stream(97, t)
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        if t % 5 == 0:
            rho = random_zero_discord_state(da, db, seed=97, index=t)
        else:
            rho = BipartiteState(random_density_matrix(da * db, rng), da, db)
        delta = basis_discord(rho).basis_discord
        _, rec = petz_recover(rho)
        flags = (
            delta < 1e-8,
            trace_distance(rec.state, rho.state) < 1e-7,
            zero_discord_decompose(rho).success,
        )
        assert len(set(flags)) == 1
        agree += 1
    assert agree == 40


def test_qubit_a_zero_discord_is_iq_or_product():
    # With a qubit on A, zero discord forces an IQ or product state.
    for t in range(40):
        rng = stream(101, t)
        rho = random_zero_discord_state(2, 2, seed=101, index=t)
        if basis_discord(rho).basis_discord >= 1e-9:
            continue
        dec = zero_discord_decompose(rho)
        n_blocks = len(dec.blocks)
        assert dec.success and (n_blocks == 2 or n_blocks == 1)


def test_ensemble_monotonicity_identity_channel():
    rho = zero_discord_example()
    from coherence_kit.channels import identity_channel

    res = ensemble_monotonicity_trial("J", rho, identity_channel(3))
    assert res["lhs"] == pytest.approx(res["rhs"], abs=1e-10)


def test_ensemble_monotonicity_random_trials():
    for t in range(20):
        rng = stream(103, t)
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        rho = BipartiteState(random_density_matrix(da * db, rng), da, db)
        e = random_si_channel(da, 2, seed=103, index=t)
        for kind in ("J", "delta"):
            assert ensemble_monotonicity_trial(kind, rho, e)["pass"]


def test_ensemble_monotonicity_rejects_non_si():
    k0 = np.array([[1, 1], [0, 0]], dtype=complex) / np.sqrt(2)
    k1 = np.array([[0, 0], [1, -1]], dtype=complex) / np.sqrt(2)
    rho = product_state(2, 2)
    with pytest.raises(ChannelError):
        ensemble_monotonicity_trial("J", rho, KrausChannel((k0, k1)))


def test_coherence_consumption_bound():
    # Creating discord costs at least as much local coherence.
    for t in range(15):
        rng = stream(107, t)
        da = int(rng.integers(2, 4))
        rho = BipartiteState(random_density_matrix(da * 2, rng), da, 2)
        e = random_si_channel(da, 2, seed=107, index=t)
        before = basis_discord(rho)
        after = basis_discord(local_apply(e, rho, "A"))
        gain = after.basis_discord - before.basis_discord
        spent = before.local_coherence - after.local_coherence
        assert gain <= spent + 1e-8


def test_j_monotone_under_channels_on_b():
    for t in range(20):
        rng = stream(109, t)
        rho = BipartiteState(random_density_matrix(6, rng), 3, 2)
        u = random_unitary(2, rng)
        mix = KrausChannel((np.sqrt(0.7) * np.eye(2, dtype=complex), np.sqrt(0.3) * u))
        before = classical_correlations(rho)
        after = classical_correlations(local_apply(mix, rho, "B"))
        assert after <= before + 1e-9


def test_j_witness_fixed_channel():
    k0 = np.array([[1, 1], [0, 0]], dtype=complex) / np.sqrt(2)
    k1 = np.array([[0, 0], [1, -1]], dtype=complex) / np.sqrt(2)
    state, phi, before, after = j_increase_witness(KrausChannel((k0, k1)))
    assert phi == pytest.approx(0.0, abs=1e-10)
    assert before <= 1e-10
    assert after > 1e-4
    assert state.dims == (2, 2)


def test_j_witness_invariant_under_global_kraus_phase():
    # e^{i theta} K_mu is the same channel, so the witness must not move.
    for d in (2, 3, 4):
        for index in range(30):
            e = random_incoherent_not_si_channel(d, seed=0, index=index)
            state, phi, _, j_after = j_increase_witness(e)
            for theta in (0.3, 1.1, 2.0):
                turned = KrausChannel(tuple(np.exp(1j * theta) * k for k in e.kraus))
                state2, phi2, _, j_after2 = j_increase_witness(turned)
                np.testing.assert_allclose(state2.state, state.state, rtol=0, atol=1e-12)
                assert abs(np.exp(1j * phi2) - np.exp(1j * phi)) <= 1e-12
                assert j_after2 == pytest.approx(j_after, rel=0, abs=1e-12)


def test_j_witness_rejects_si_channel():
    with pytest.raises(ChannelError):
        j_increase_witness(random_si_channel(3, 2, seed=113))


def test_recoverability_zero_discord_state():
    res = recoverability(zero_discord_example(), budget=0)
    assert res["value"] < 1e-6
    assert res["petz_value"] < 1e-6


def test_recoverability_iq_state():
    res = recoverability(classically_correlated(), budget=0)
    assert res["value"] < 1e-9


def test_recoverability_positive_on_discordant_state():
    res = recoverability(delta_creation_demo()["state"], budget=0)
    assert 1e-3 < res["value"] <= res["petz_value"] + 1e-12


def test_recoverability_optimizer_beats_or_matches_petz():
    rng = stream(127, 0)
    rho = BipartiteState(random_density_matrix(4, rng), 2, 2)
    res = recoverability(rho, budget=2, maxiter=400)
    assert res["value"] <= res["petz_value"] + 1e-12
    assert res["channel"].trace_preserving


@pytest.mark.parametrize("metric", METRICS)
def test_recoverability_channel_reproduces_value(metric):
    rho = BipartiteState(random_density_matrix(4, stream(128, 0)), 2, 2)
    res = recoverability(rho, metric=metric, budget=1, maxiter=200)
    assert res["value"] < res["petz_value"]
    dephased = BipartiteState(dephase_subsystem(rho.state, rho.dims, 0), 2, 2)
    recovered = local_apply(res["channel"], dephased, "A")
    assert distance(metric, rho.state, recovered.state) == pytest.approx(res["value"], rel=0, abs=1e-12)


def test_recoverability_reports_optimizer_state():
    rho = BipartiteState(random_density_matrix(4, stream(129, 0)), 2, 2)
    petz_only = recoverability(rho, budget=0)
    assert not petz_only["converged"]
    assert petz_only["iterations"] == 0 and petz_only["lower_bound"] == 0.0
    capped = recoverability(rho, budget=1, maxiter=2)
    assert not capped["converged"]
    assert capped["iterations"] == 2 and capped["lower_bound"] < capped["value"]
    settled = recoverability(rho, budget=1)
    assert settled["converged"]
    assert settled["value"] - settled["lower_bound"] <= 1e-8
    # A 3 x 2 state: the former Stinespring chart had (3 * 9)^2 parameters
    # and skipped it; the Choi-matrix solve runs on it like on any other.
    wide = BipartiteState(random_density_matrix(6, stream(129, 1)), 3, 2)
    solved = recoverability(wide, budget=1)
    assert solved["iterations"] > 0
    assert solved["lower_bound"] <= solved["value"] < solved["petz_value"]


def _stinespring_chart(dim, ancilla):
    """The former recoverability chart: real vector -> Hermitian generator ->
    unitary U on system x ancilla -> Kraus stack K_mu = (I x <mu|) U (I x |0>)."""
    n = dim * ancilla
    iu = np.triu_indices(n, 1)
    m = len(iu[0])

    def kraus(theta):
        h = np.zeros((n, n), dtype=complex)
        h[iu] = theta[:m] + 1j * theta[m : 2 * m]
        h = h + h.conj().T
        h[np.diag_indices(n)] = theta[2 * m :]
        return expm(1j * h).reshape(dim, ancilla, dim, ancilla)[:, :, :, 0].transpose(1, 0, 2)

    return kraus


def _chart_point(kraus, ancilla):
    """Chart parameters of a Kraus stack of at most ``ancilla`` operators:
    its isometry is completed to a unitary by QR, then logm gives the generator."""
    r, dim, _ = kraus.shape
    n = dim * ancilla
    iso = np.zeros((dim, ancilla, dim), dtype=complex)
    iso[:, :r] = kraus.transpose(1, 0, 2)
    iso = iso.reshape(n, dim)
    q, _ = np.linalg.qr(np.hstack([iso, np.eye(n)]))
    first = np.arange(dim) * ancilla
    u = np.zeros((n, n), dtype=complex)
    u[:, first] = iso
    u[:, np.setdiff1d(np.arange(n), first)] = q[:, dim:]
    h = logm(u) / 1j
    h = (h + h.conj().T) / 2.0
    iu = np.triu_indices(n, 1)
    return np.concatenate([h[iu].real, h[iu].imag, np.diag(h).real])


def _nelder_mead_recoverability(rho, metric, maxiter=2000):
    """The former optimizer as an oracle: the best of Petz, the identity and a
    Nelder-Mead run of ``maxiter`` iterations from Petz over the d_A^2-ancilla chart."""
    da, db = rho.dims
    sigma = BipartiteState(dephase_subsystem(rho.state, rho.dims, 0), *rho.dims)
    chart = _stinespring_chart(da, da * da)

    def objective_ops(ops):
        return distance(metric, rho.state, local_branches(KrausChannel._built(ops), sigma, "A").sum(axis=0))

    petz, _ = petz_recover(rho)
    start = _chart_point(petz.kraus, da * da)
    assert objective_ops(chart(start)) == pytest.approx(objective_ops(petz.kraus), abs=1e-9)
    res = minimize(
        lambda theta: objective_ops(chart(theta)),
        start,
        method="Nelder-Mead",
        options={"maxiter": maxiter, "xatol": 1e-8, "fatol": 1e-10},
    )
    return min(float(res.fun), objective_ops(petz.kraus), objective_ops(np.eye(da)[None]))


def _assert_certified(res, rho, metric):
    """lower_bound <= value <= Petz value, a CPTP channel, and that channel,
    rescored by local action and the metric, reproduces the value."""
    assert res["lower_bound"] <= res["value"] <= max(0.0, res["petz_value"])
    channel = KrausChannel(res["channel"].kraus)
    assert channel.trace_preserving
    sigma = dephase_subsystem(rho.state, rho.dims, 0)
    recovered = local_apply(channel, BipartiteState(sigma, *rho.dims), "A")
    rescored = max(0.0, distance(metric, rho.state, recovered.state))
    assert rescored == pytest.approx(res["value"], rel=0, abs=1e-12)


@pytest.mark.parametrize("metric", METRICS)
def test_recoverability_certified_below_nelder_mead(metric):
    for t in range(3):
        rho = BipartiteState(random_density_matrix(4, stream(151, t)), 2, 2)
        res = recoverability(rho, metric=metric, budget=1)
        _assert_certified(res, rho, metric)
        assert res["value"] <= _nelder_mead_recoverability(rho, metric) + 1e-9


def test_memory_trial_sides_certified():
    for t in range(3):
        rng = stream(153, t)
        rho = BipartiteState(random_density_matrix(4, rng), 2, 2)
        e = random_si_channel(2, 2, seed=153, index=t)
        trial = memory_monotonicity_trial(rho, e, budget=1, seed=t)
        assert trial["pass"]
        assert trial["before"] <= _nelder_mead_recoverability(rho, "trace") + 1e-9
        extended = local_apply(with_memory(e), rho, "A")
        after = recoverability(extended, budget=1)
        assert after["iterations"] > 0
        _assert_certified(after, extended, "trace")


def _recover_memory_state(t):
    """Trial t of `suite recover-memory --seed 5`, after the channel: (the
    extended state, the number of outcomes)."""
    rng = stream(5, 109, t)
    rho = BipartiteState(random_density_matrix(4, rng), 2, 2)
    e = random_si_channel(2, int(rng.integers(1, 4)), seed=5, index=t)
    return local_apply(with_memory(e), rho, "A"), len(e)


def test_trace_solve_converges_on_memory_trials_that_stopped_at_the_cap():
    # Trials 2, 4, 17 and 18 of `suite recover-memory --seed 5`: the side
    # after the channel, where the former first-order solve stopped at its
    # 2000-iteration cap.
    for t, dim_a in ((2, 6), (4, 6), (17, 4), (18, 4)):
        extended, _ = _recover_memory_state(t)
        assert extended.dim_a == dim_a
        res = recoverability(extended, budget=1)
        assert res["converged"] and 0 < res["iterations"] <= 30
        _assert_certified(res, extended, "trace")


def test_a_groups_of_a_memory_state_are_its_memory_blocks():
    for t in (2, 4, 17, 18):
        extended, outcomes = _recover_memory_state(t)
        groups = discord._a_groups(extended.state, extended.dim_a, extended.dim_b, 0.0)
        assert outcomes > 1
        assert groups == [[2 * mu, 2 * mu + 1] for mu in range(outcomes)]


@pytest.mark.parametrize("dim_a", [2, 3])
def test_a_groups_of_a_generic_state_is_one_group(dim_a):
    for t in range(5):
        rho = random_density_matrix(2 * dim_a, stream(197, dim_a, t))
        assert discord._a_groups(rho, dim_a, 2, 0.0) == [list(range(dim_a))]


def test_split_trace_solve_matches_the_unsplit_solve(monkeypatch):
    # The solve over the memory blocks and the solve over all of A (the
    # grouping forced to one group) bracket the same optimum.
    states = [_recover_memory_state(t)[0] for t in (2, 4, 17, 18)]
    split = [recoverability(extended, budget=1) for extended in states]
    monkeypatch.setattr(discord, "_a_groups", lambda mat, da, db, tol: [list(range(da))])
    whole = [recoverability(extended, budget=1) for extended in states]
    for extended, a, b in zip(states, split, whole):
        assert extended.dim_a in (4, 6)
        for res in (a, b):
            assert res["converged"]
            _assert_certified(res, extended, "trace")
        assert abs(a["value"] - b["value"]) <= discord.RECOVERY_GAP_TOL
        assert a["lower_bound"] <= b["value"] and b["lower_bound"] <= a["value"]


def test_trace_solve_ends_cleanly_where_the_gap_cannot_close(monkeypatch):
    # With a gap tolerance of 0 the path runs until X or S is singular to
    # working precision; the solve stops there, unconverged and certified.
    monkeypatch.setattr(discord, "RECOVERY_GAP_TOL", 0.0)
    for t in range(2):
        rho = BipartiteState(random_density_matrix(6, stream(191, t)), 3, 2)
        res = recoverability(rho, budget=1)
        assert not res["converged"] and 0 < res["iterations"] < 100
        assert res["value"] - res["lower_bound"] <= 1e-10
        _assert_certified(res, rho, "trace")


@pytest.mark.parametrize("metric", METRICS)
def test_zero_discord_states_are_certified_without_steps(metric):
    # Every metric is >= 0, so an exact candidate closes the gap at once.
    for dim_a in (2, 3):
        for i in range(4):
            rho = random_zero_discord_state(dim_a, 2, seed=181, index=i)
            res = recoverability(rho, metric=metric, budget=1)
            assert res["converged"] and res["iterations"] == 0
            assert res["lower_bound"] == 0.0 and res["value"] <= 1e-8
            _assert_certified(res, rho, metric)


def test_petz_value_bounds_value_exactly_on_zero_discord_states():
    # The relative entropy of an exact Petz recovery rounds to as low as
    # -3e-15 (index 25 at d_A = 3); both values are reported no lower than 0.
    for dim_a in (2, 3):
        for i in range(30):
            res = recoverability(random_zero_discord_state(dim_a, 2, seed=181, index=i), metric="rel_ent", budget=1)
            assert 0.0 <= res["value"] <= res["petz_value"]


def _property_state(seed, kind):
    rng = stream(157, seed)
    if kind == "random":
        return BipartiteState(random_density_matrix(4, rng), 2, 2)
    if kind == "zero-discord":
        return random_zero_discord_state(2, 2, seed=157, index=seed)
    vecs = [random_pure_state(4, rng) for _ in range(int(rng.integers(1, 3)))]
    weights = rng.dirichlet(np.ones(len(vecs)))
    return BipartiteState(sum(w * projector(v) for w, v in zip(weights, vecs)), 2, 2)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["random", "rank-deficient", "zero-discord"]),
    metric=st.sampled_from(METRICS),
)
def test_recoverability_bound_and_channel_property(seed, kind, metric):
    rho = _property_state(seed, kind)
    short = recoverability(rho, metric=metric, budget=1, maxiter=200)
    _assert_certified(short, rho, metric)
    # Each run's bound lies below the other run's value: both bracket the optimum.
    full = recoverability(rho, metric=metric, budget=1)
    _assert_certified(full, rho, metric)
    assert short["lower_bound"] <= full["value"] and full["lower_bound"] <= short["value"]


def test_recoverability_starts_at_padded_petz_channel():
    # Side A is a qutrit whose level 2 is empty, so the dephased marginal is
    # singular and the Petz channel carries the padding operator: more Kraus
    # operators than d_A.  The former chart kept only the first few of them.
    mat = np.zeros((6, 6), dtype=complex)
    mat[:4, :4] = random_density_matrix(4, stream(163, 0))
    rho = BipartiteState(mat, 3, 2)
    petz, _ = petz_recover(rho)
    assert len(petz) > rho.dim_a
    sigma = dephase_subsystem(mat, rho.dims, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for metric in METRICS:
            res = recoverability(rho, metric=metric, budget=1)
            problem = _RecoveryProblem(metric, rho, sigma)
            start = distance(metric, mat, problem.link(_prepared_states(petz.kraus)))
            assert start == pytest.approx(res["petz_value"], rel=0, abs=1e-12)
            assert res["value"] <= res["petz_value"]
            _assert_certified(res, rho, metric)


def _fista_recoverability(rho, metric, maxiter=2000):
    """The former smooth solver as an oracle: FISTA over the product of
    spectraplexes from the best of the Petz channel and the identity, with
    the momentum reset when a step points uphill and a step redone half as
    long when its change of gradient outruns its change of coordinates.
    Fidelity steps in omega and projects back onto the states; relative
    entropy steps in log(omega), 1% of the way to I/d_A at the start
    (entropic mirror descent).  Scored every 10 iterations by the library's
    certificate.  Returns (value, converged)."""
    da = rho.dim_a
    sigma = dephase_subsystem(rho.state, rho.dims, 0)
    problem = _RecoveryProblem(metric, rho, sigma)
    starts = [_prepared_states(petz_recover(rho)[0].kraus), np.eye(da)[:, :, None] * np.eye(da)[:, None, :]]
    values = [problem.distance_to(problem.link(omega)) for omega in starts]
    best = discord._Incumbent(problem, min(values))
    entropic = metric == "rel_ent"

    def exp_states(h):
        mu, v = np.linalg.eigh(h)
        weights = np.exp(mu - mu[:, -1:])
        return (v * (weights / weights.sum(axis=1, keepdims=True))[:, None, :]) @ dagger(v)

    def traceless(m):
        return m - np.trace(m, axis1=1, axis2=2)[:, None, None] / da * np.eye(da)

    to_states = exp_states if entropic else _project_states

    def point(u):
        omega = to_states(u)
        x = problem.link(omega)
        c, g = problem.minorant(x, None)
        return omega, x, c, problem.adjoint(g), u if entropic else omega

    u = starts[int(np.argmin(values))]
    if entropic:
        lam, v = np.linalg.eigh(0.99 * u + 0.01 * np.eye(da) / da)
        u = (v * np.log(lam)[:, None, :]) @ dagger(v)
    tau, momentum, iterations = 3.0 / np.sqrt(da), 1.0, 0
    here = previous = point(u)
    while True:
        if iterations % 10 == 0 or iterations >= maxiter:
            if best.score(*here[:4]) or iterations >= maxiter:
                break
        iterations += 1
        following = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum**2))
        base = here
        if momentum > 1.0:
            base = point(here[4] + (momentum - 1.0) / following * (here[4] - previous[4]))
        trial = point(base[4] - tau * traceless(base[3]))
        moved, turned, stepped = trial[0] - base[0], traceless(trial[3] - base[3]), trial[4] - base[4]
        rounding = discord.NOISE_FLOOR * (tau * np.linalg.norm(turned) + np.linalg.norm(stepped))
        if tau * np.real(np.vdot(turned, moved)) - np.real(np.vdot(stepped, moved)) > rounding:
            tau *= 0.5
            continue
        tau *= 1.1
        momentum = 1.0 if np.real(np.vdot(base[3], trial[0] - here[0])) > 0.0 else following
        previous, here = here, trial
    return max(0.0, best.value), best.closed


def _smooth_panel():
    """Seeded 2x2, 3x2 and 2x3 states, 4 of each."""
    for da, db in ((2, 2), (3, 2), (2, 3)):
        for t in range(4):
            yield BipartiteState(random_density_matrix(da * db, stream(211, da, db, t)), da, db)


@pytest.mark.parametrize("metric", ["one_minus_fidelity", "rel_ent"])
def test_barrier_newton_converges_below_the_fista_oracle(metric):
    # On these states the barrier solve took 14-27 Newton steps; the former
    # first-order solve took tens to hundreds of iterations.
    for rho in _smooth_panel():
        res = recoverability(rho, metric=metric, budget=1)
        assert res["converged"] and 0 < res["iterations"] <= 40, (rho.dims, res["iterations"])
        _assert_certified(res, rho, metric)
        oracle, oracle_converged = _fista_recoverability(rho, metric)
        if oracle_converged:
            assert res["value"] <= oracle + discord.RECOVERY_GAP_TOL


@pytest.mark.parametrize("metric", ["one_minus_fidelity", "rel_ent"])
@pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
def test_smooth_recovery_derivatives_match_central_differences(metric, dims):
    # The metric at L(omega) over the traceless directions T_k at slot i:
    # the gradient L^*(g) against differences of the value, the Hessian
    # against differences of the gradient, both with step 1e-5.
    da, db = dims
    h = 1e-5
    dense = discord._hermitian_basis(da)[4]
    basis = np.hstack([dense[:, : da - 1] - dense[:, da - 1 : da], dense[:, da:]])
    size = basis.shape[1]
    # T_k at slot i, for every (i, k).
    slots = np.eye(da)[:, None, :, None, None]
    directions = (slots * basis.T.reshape(size, da, da)[None, :, None]).reshape(-1, da, da, da)
    for t in range(3):
        rng = stream(223, da, db, t)
        rho = BipartiteState(random_density_matrix(da * db, rng), da, db)
        problem = _RecoveryProblem(metric, rho, dephase_subsystem(rho.state, rho.dims, 0))
        omega = np.stack([0.5 * random_density_matrix(da, rng) + 0.5 * np.eye(da) / da for _ in range(da)])

        def value(w):
            return problem.tangent(problem.link(w))[0]

        def gradient(w):
            grad = problem.adjoint(problem.tangent(problem.link(w))[2])
            return np.real(grad.reshape(da, -1) @ basis.conj()).reshape(-1)

        spectral = problem.tangent(problem.link(omega))[3]
        grad, hess = gradient(omega), problem.hessian(spectral, basis)
        fd_grad = np.array([(value(omega + h * e) - value(omega - h * e)) / (2 * h) for e in directions])
        fd_hess = np.array([(gradient(omega + h * e) - gradient(omega - h * e)) / (2 * h) for e in directions])
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(hess, fd_hess, rtol=1e-5, atol=1e-5 * np.abs(hess).max())
        np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-12 * np.abs(hess).max())
        assert np.linalg.eigvalsh(hess).min() >= -1e-12 * np.abs(hess).max()


@pytest.mark.parametrize("metric", ["one_minus_fidelity", "rel_ent"])
def test_barrier_solve_ends_cleanly_where_the_gap_cannot_close(metric, monkeypatch):
    # With a gap tolerance of 0, mu keeps falling until a step is lost in
    # rounding; the solve stops there, unconverged and certified.
    monkeypatch.setattr(discord, "RECOVERY_GAP_TOL", 0.0)
    for dims in ((2, 2), (3, 2)):
        rho = BipartiteState(random_density_matrix(dims[0] * dims[1], stream(191, 7)), *dims)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = recoverability(rho, metric=metric, budget=1)
        assert not res["converged"] and 0 < res["iterations"] < 100
        assert res["value"] - res["lower_bound"] <= 1e-10
        _assert_certified(res, rho, metric)


def test_smooth_recovery_edge_inputs_raise_no_warnings():
    # Rank-deficient rho; a 2 x 3 state whose B level 2 is empty, so that
    # rho_B and every recovered X = L(omega) are singular; and zero-discord
    # states, certified before any step.
    states = []
    for t in range(2):
        for dims in ((2, 2), (3, 2)):
            rng = stream(227, *dims, t)
            states.append(BipartiteState(random_density_matrix(dims[0] * dims[1], rng, rank=1 + t), *dims))
        mat = np.zeros((6, 6), dtype=complex)
        kept = [0, 1, 3, 4]
        mat[np.ix_(kept, kept)] = random_density_matrix(4, stream(229, t))
        states.append(BipartiteState(mat, 2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for metric in ("one_minus_fidelity", "rel_ent"):
            for rho in states:
                res = recoverability(rho, metric=metric, budget=1)
                assert res["converged"] and res["iterations"] <= 40, (rho.dims, res["iterations"])
                _assert_certified(res, rho, metric)
            for dim_a in (2, 3):
                rho = random_zero_discord_state(dim_a, 2, seed=233)
                res = recoverability(rho, metric=metric, budget=1)
                assert res["converged"] and res["iterations"] == 0
                _assert_certified(res, rho, metric)


def _memory_trial_states(seed, count):
    """(rho, SI channel, state after the channel with its outcome recorded) on 2 x 2."""
    for t in range(count):
        rng = stream(seed, t)
        rho = BipartiteState(random_density_matrix(4, rng), 2, 2)
        e = random_si_channel(2, int(rng.integers(2, 5)), seed=seed, index=t)
        yield rho, e, local_apply(with_memory(e), rho, "A")


def _random_kraus(d, rng):
    """Kraus stack of a random CPTP channel on dimension d with d Kraus operators."""
    g = rng.normal(size=(d * d, d)) + 1j * rng.normal(size=(d * d, d))
    q, _ = np.linalg.qr(g)
    return q.reshape(d, d, d)


def test_recovery_link_is_local_action_on_prepared_states():
    rng = stream(167, 0)
    states = [BipartiteState(random_density_matrix(da * 2, rng), da, 2) for da in (2, 3, 4)]
    states += [extended for _, _, extended in _memory_trial_states(167, 3)]
    for rho in states:
        sigma = dephase_subsystem(rho.state, rho.dims, 0)
        problem = _RecoveryProblem("trace", rho, sigma)
        kraus = _random_kraus(rho.dim_a, rng)
        omega = _prepared_states(kraus)
        want = local_branches(KrausChannel._built(kraus), BipartiteState(sigma, *rho.dims), "A").sum(axis=0)
        np.testing.assert_allclose(problem.link(omega), want, rtol=0, atol=1e-14)
        g = random_density_matrix(rho.dim_a * rho.dim_b, rng) - 0.3 * np.eye(rho.dim_a * rho.dim_b)
        lhs = np.trace(g @ problem.link(omega))
        rhs = np.einsum("iab,iba->", problem.adjoint(g), omega)
        assert abs(lhs - rhs) <= 1e-13


def test_project_states_is_the_nearest_stack_of_states():
    rng = stream(173, 0)
    for d in (2, 3, 4):
        m = rng.normal(size=(d, d, d)) + 1j * rng.normal(size=(d, d, d))
        m = m + dagger(m)
        omega = _project_states(m)
        for state in omega:
            assert np.linalg.eigvalsh(state)[0] >= -1e-14 and abs(np.trace(state) - 1.0) <= 1e-14
        # A stack of states is its own projection.
        np.testing.assert_allclose(_project_states(omega), omega, rtol=0, atol=1e-13)
        # Nearer to m than any other stack of states (first-order optimality).
        for _ in range(20):
            other = np.array([random_density_matrix(d, rng) for _ in range(d)])
            assert np.real(np.vdot(m - omega, other - omega)) <= 1e-12


def test_memory_register_is_already_dephased():
    # with_memory records the outcome as a classical register, so dephasing
    # only the system factor of A = memory x system equals dephasing all of A.
    for _, e, extended in _memory_trial_states(179, 6):
        m, d = len(e), e.dim_in
        full = dephase_subsystem(extended.state, extended.dims, 0)
        system_only = dephase_subsystem(extended.state, (m, d, extended.dim_b), 1)
        assert np.array_equal(full, system_only)
        # Petz channel for system-only dephasing: projectors I_m x |i><i|.
        rho_a = extended.marginal("A")
        projectors = [tensor_product(np.eye(m), projector(ket(i, d))) for i in range(d)]
        dephased_a = sum(p @ rho_a @ p for p in projectors)
        root, inv_root = matrix_function(rho_a, "sqrt"), matrix_function(dephased_a, "inv_sqrt")
        petz = pad_trace_preserving(KrausChannel(tuple(root @ p @ inv_root for p in projectors)))
        recovered = local_apply(petz, BipartiteState(system_only, *extended.dims), "A")
        for metric in METRICS:
            want = distance(metric, extended.state, recovered.state)
            got = recoverability(extended, metric=metric, budget=0)["petz_value"]
            assert got == pytest.approx(want, rel=0, abs=1e-12)


def test_memory_trial_reports_both_solves():
    rng = stream(157, 0)
    rho = BipartiteState(random_density_matrix(4, rng), 2, 2)
    res = memory_monotonicity_trial(rho, random_si_channel(2, 2, seed=157), budget=1)
    for side in ("before", "after"):
        assert res[f"{side}_lower_bound"] <= res[side]
        assert res[f"{side}_converged"] and res[f"{side}_iterations"] > 0


def test_memory_monotonicity_identity_channel():
    from coherence_kit.channels import identity_channel

    rng = stream(131, 0)
    rho = BipartiteState(random_density_matrix(4, rng), 2, 2)
    res = memory_monotonicity_trial(rho, identity_channel(2), budget=1)
    assert res["pass"]
    assert res["after"] <= res["before"] + 1e-6


def test_memory_monotonicity_random_trials():
    for t in range(5):
        rng = stream(137, t)
        rho = BipartiteState(random_density_matrix(4, rng), 2, 2)
        e = random_si_channel(2, 2, seed=137, index=t)
        assert memory_monotonicity_trial(rho, e, budget=1, seed=t)["pass"]


def test_memory_monotonicity_zero_discord_input():
    rho = random_zero_discord_state(2, 2, seed=139)
    e = random_si_channel(2, 2, seed=139)
    res = memory_monotonicity_trial(rho, e, budget=1)
    assert res["before"] < 1e-6 and res["after"] < 1e-4


def _spectrum_panel():
    """Seeded 2x2, 2x3, 3x2 and 3x3 states: random, pure, rank 2 and planted
    zero discord."""
    for da, db in ((2, 2), (2, 3), (3, 2), (3, 3)):
        rng = stream(191, da, db)
        n = da * db
        yield BipartiteState(random_density_matrix(n, rng), da, db)
        yield BipartiteState(projector(random_pure_state(n, rng)), da, db)
        yield BipartiteState(random_density_matrix(n, rng, rank=2), da, db)
        yield random_zero_discord_state(da, db, seed=191)


@pytest.mark.parametrize("rotated", [False, True])
def test_basis_discord_equals_plain_entropy_compositions(rotated):
    # The report reads the states' validation spectra and one eigensolve per
    # marginal; every field must equal, bit for bit, the composition of
    # plain ``entropy`` calls it replaces.
    for k, rho in enumerate(_spectrum_panel()):
        basis = Basis(random_unitary(rho.dim_a, stream(193, k))) if rotated else None
        rep = basis_discord(rho, basis)
        work = rho if basis is None else basis.to_coords_a(rho)
        dephased = BipartiteState(dephase_subsystem(work.state, work.dims, 0), *work.dims)
        i = entropy(work.marginal("A")) + entropy(work.marginal("B")) - entropy(work.state)
        j = entropy(dephased.marginal("A")) + entropy(dephased.marginal("B")) - entropy(dephased.state)
        marginal_a = work.marginal("A")
        assert rep.mutual_information == mutual_information(work) == i
        assert rep.classical_correlations == mutual_information(dephased) == j
        assert rep.classical_correlations == classical_correlations(rho, basis)
        assert rep.basis_discord == i - j
        assert rep.local_coherence == entropy(dephase(marginal_a)) - entropy(marginal_a)
        assert rep.conditional_coherence == entropy(dephased.state) - entropy(work.state)
        for r in (work.state, marginal_a, rho.marginal("B")):
            assert rel_ent_coherence(r) == entropy(dephase(r)) - entropy(r)


@pytest.mark.parametrize("wrong", ["side B", "rotated A basis"])
def test_discord_identity_catches_a_wrong_dephasing(wrong, monkeypatch):
    # The identity delta = C(B|A) - C(A) compares the dephased state's
    # marginals with rho's, so a Phi_A that dephases the wrong side or in
    # the wrong coordinates must trip it.
    rho = BipartiteState(random_density_matrix(6, stream(197, 0)), 2, 3)
    real = discord._dephase_a
    if wrong == "side B":
        def bad(r):
            return BipartiteState(dephase_subsystem(r.state, r.dims, 1), *r.dims)
    else:
        basis = Basis(random_unitary(2, stream(197, 1)))
        def bad(r):
            return basis.from_coords_a(real(basis.to_coords_a(r)))
    basis_discord(rho)
    monkeypatch.setattr(discord, "_dephase_a", bad)
    with pytest.raises(InvariantError, match="discord identity"):
        basis_discord(rho)


def test_basis_argument_rotates_everything_consistently():
    rng = stream(149, 0)
    u = random_unitary(3, rng)
    b = Basis(u)
    rho = zero_discord_example()
    ub = tensor_product(u, np.eye(2))
    rotated = BipartiteState(ub @ rho.state @ ub.conj().T, 3, 2)
    rep = basis_discord(rotated, b)
    assert rep.basis_discord == pytest.approx(0.0, abs=1e-9)
    dec = zero_discord_decompose(rotated, b)
    assert dec.success
    _, rec = petz_recover(rotated, b)
    assert trace_distance(rec.state, rotated.state) < 1e-8
