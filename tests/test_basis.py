"""Basis covariance of every public basis-taking function.

For a unitary U and Basis(U), each function must give on (U rho U^dag,
Basis(U)) what it gives on (rho, no basis), and return its operators in the
caller's coordinates: U X U^dag for a single-system operator X, and
(U x I) X (U x I)^dag for a state on A x B.
"""

import numpy as np
import pytest

from coherence_kit.channels import BipartiteState, KrausChannel, local_apply
from coherence_kit.coherence import (
    Basis,
    classify_channel,
    classify_kraus,
    dephase,
    fidelity_coherence_report,
    random_incoherent_not_si_channel,
    random_si_channel,
    rel_ent_coherence,
)
from coherence_kit.discord import (
    basis_discord,
    ensemble_monotonicity_trial,
    j_increase_witness,
    petz_recover,
    random_zero_discord_state,
    recoverability,
    zero_discord_decompose,
)
from coherence_kit.linalg import dagger, dephase_subsystem, tensor_product
from coherence_kit.sampling import random_density_matrix, random_unitary, stream
from coherence_kit.universal import depolarizing_channel

TOL = 1e-10
DIMS = (2, 3, 4)


def _rotate(u, m):
    """U m U^dag for a matrix or a stack of matrices."""
    return u @ m @ dagger(u)


def _rotate_a(u, rho: BipartiteState) -> BipartiteState:
    ub = tensor_product(u, np.eye(rho.dim_b))
    return BipartiteState(ub @ rho.state @ dagger(ub), rho.dim_a, rho.dim_b)


def _rotate_channel(u, channel: KrausChannel) -> KrausChannel:
    return KrausChannel(_rotate(u, channel.kraus))


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


def _panel(d, case):
    rng = stream(211, d, case)
    return random_unitary(d, rng), rng


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("rank", ["full", "pure"])
def test_single_system_measures_are_covariant(d, rank):
    u, rng = _panel(d, 0 if rank == "full" else 1)
    rho = random_density_matrix(d, rng, rank=None if rank == "full" else 1)
    b = Basis(u)
    rotated = _rotate(u, rho)
    _close(dephase(rotated, b), _rotate(u, dephase(rho)))
    assert rel_ent_coherence(rotated, b) == pytest.approx(rel_ent_coherence(rho), abs=TOL)
    got, want = fidelity_coherence_report(rotated, b), fidelity_coherence_report(rho)
    for key in ("value", "lower_bound"):
        assert got[key] == pytest.approx(want[key], abs=TOL)
    assert got["converged"] == want["converged"]


@pytest.mark.parametrize("d", DIMS)
def test_classification_is_covariant(d):
    u, rng = _panel(d, 2)
    b = Basis(u)
    observable = np.arange(d, dtype=float)
    channels = (
        random_si_channel(d, 2, seed=211, index=d),
        random_incoherent_not_si_channel(d, seed=211, index=d),
        KrausChannel((random_unitary(d, rng),)),
    )
    for e in channels:
        rotated = _rotate_channel(u, e)
        for k, k_rot in zip(e.kraus, rotated.kraus):
            got, want = classify_kraus(k_rot, b), classify_kraus(k)
            assert (got.incoherent, got.strictly_incoherent, got.genuinely_incoherent) == (
                want.incoherent,
                want.strictly_incoherent,
                want.genuinely_incoherent,
            )
            assert got.permutation == want.permutation
            assert got.violation == pytest.approx(want.violation, abs=TOL)
        got, want = classify_channel(rotated, b, observable), classify_channel(e, None, observable)
        flags = ("incoherent", "strictly_incoherent", "genuinely_incoherent", "covariant", "commutes_with_dephasing")
        for key in flags:
            assert getattr(got, key) == getattr(want, key), key
        assert got.max_violation == pytest.approx(want.max_violation, abs=TOL)


@pytest.mark.parametrize("d", DIMS)
def test_generators_return_caller_coordinates(d):
    u, _ = _panel(d, 3)
    b = Basis(u)
    want = _rotate(u, random_si_channel(d, 3, seed=211, index=1).kraus)
    _close(random_si_channel(d, 3, seed=211, basis=b, index=1).kraus, want)
    for p in (0.4, -1.0 / (d * d - 1)):
        _close(depolarizing_channel(d, p, b).kraus, _rotate(u, depolarizing_channel(d, p).kraus))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("planted", [False, True])
def test_bipartite_functions_are_covariant(d, planted):
    u, rng = _panel(d, 4 + planted)
    b = Basis(u)
    if planted:
        rho = random_zero_discord_state(d, 2, seed=211, index=d)
    else:
        rho = BipartiteState(random_density_matrix(2 * d, rng), d, 2)
    rotated = _rotate_a(u, rho)

    got, want = basis_discord(rotated, b).to_dict(), basis_discord(rho).to_dict()
    for key in want:
        assert got[key] == pytest.approx(want[key], abs=TOL), key

    (ch_got, rec_got), (ch_want, rec_want) = petz_recover(rotated, b), petz_recover(rho)
    _close(ch_got.kraus, _rotate(u, ch_want.kraus))
    _close(rec_got.state, _rotate_a(u, rec_want).state)

    got, want = zero_discord_decompose(rotated, b), zero_discord_decompose(rho)
    assert got.success == want.success
    assert got.residual == pytest.approx(want.residual, abs=TOL)
    assert len(got.blocks) == len(want.blocks)
    for (p, a, bb, s), (p0, a0, bb0, s0) in zip(got.blocks, want.blocks):
        assert p == pytest.approx(p0, abs=TOL) and s == s0
        _close(a, _rotate(u, a0))
        _close(bb, bb0)

    got, want = recoverability(rotated, b, budget=0), recoverability(rho, budget=0)
    for key in ("value", "petz_value", "lower_bound"):
        assert got[key] == pytest.approx(want[key], abs=TOL), key
    # Candidates can tie (a classical A recovers exactly by Petz and by the
    # identity), so compare what the returned channels do to Phi_A(rho).
    sigma = BipartiteState(dephase_subsystem(rho.state, rho.dims, 0), d, 2)
    _close(
        local_apply(got["channel"], _rotate_a(u, sigma), "A").state,
        _rotate_a(u, local_apply(want["channel"], sigma, "A")).state,
    )

    e = random_si_channel(d, 2, seed=211, index=10 + d)
    for kind in ("J", "delta"):
        got = ensemble_monotonicity_trial(kind, rotated, _rotate_channel(u, e), b)
        want = ensemble_monotonicity_trial(kind, rho, e)
        assert got["lhs"] == pytest.approx(want["lhs"], abs=TOL)
        assert got["rhs"] == pytest.approx(want["rhs"], abs=TOL)


@pytest.mark.parametrize("d", DIMS)
def test_j_witness_is_covariant(d):
    u, _ = _panel(d, 6)
    b = Basis(u)
    e = random_incoherent_not_si_channel(d, seed=211, index=20 + d)
    state, phi, before, after = j_increase_witness(_rotate_channel(u, e), b)
    state0, phi0, before0, after0 = j_increase_witness(e)
    _close(state.state, _rotate_a(u, state0).state)
    assert np.exp(1j * phi) == pytest.approx(np.exp(1j * phi0), abs=TOL)
    assert before == pytest.approx(before0, abs=TOL)
    assert after == pytest.approx(after0, abs=TOL)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_basis_rejects_non_finite_columns(bad):
    with pytest.raises(ValueError, match="non-finite"):
        Basis([[bad, 0.0], [0.0, 1.0]])


def test_classification_rejects_bad_tolerance():
    e = KrausChannel((np.eye(2, dtype=complex),))
    for tol in (np.nan, np.inf, -np.inf, -1.0, -1e-300):
        with pytest.raises(ValueError, match="tolerance"):
            classify_kraus(e.kraus[0], tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            classify_channel(e, tol=tol)
    assert classify_channel(e, tol=0.0).genuinely_incoherent


@pytest.mark.parametrize("d", DIMS)
def test_identity_basis_rotates_exactly(d):
    u, rng = _panel(d, 7)
    b = Basis.computational(d)
    rho = random_density_matrix(d, rng)
    np.testing.assert_array_equal(dephase(rho, b), dephase(rho))
    assert fidelity_coherence_report(rho, b) == fidelity_coherence_report(rho)
    e = random_incoherent_not_si_channel(d, seed=211, index=30 + d)
    assert classify_channel(e, b).to_dict() == classify_channel(e).to_dict()
    bp = BipartiteState(random_density_matrix(2 * d, rng), d, 2)
    assert basis_discord(bp, b) == basis_discord(bp)
    np.testing.assert_array_equal(petz_recover(bp, b)[1].state, petz_recover(bp)[1].state)
