import numpy as np
import pytest

from coherence_kit.channels import ChannelError, KrausChannel, apply, choi, unitary_channel
from coherence_kit.coherence import Basis, classify_channel, dephase
from coherence_kit.linalg import dagger, eigvals_hermitian, ket
from coherence_kit.sampling import random_density_matrix, random_unitary, stream
from coherence_kit.universal import (
    bell_basis,
    channel_zoo,
    depolarizing_channel,
    every_basis_falsifier,
    is_depolarizing,
    is_unital,
    isotropic_channel,
    isotropic_decompose,
    p_range,
    weyl_operator,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_weyl_qubit_cases():
    np.testing.assert_allclose(weyl_operator(0, 0, 2), np.eye(2))
    np.testing.assert_allclose(weyl_operator(1, 0, 2), np.diag([1, -1]))
    np.testing.assert_allclose(weyl_operator(0, 1, 2), [[0, 1], [1, 0]])


def test_weyl_unitary_and_si():
    for d in (2, 3, 4):
        for k in range(d):
            for l in range(d):
                w = weyl_operator(k, l, d)
                np.testing.assert_allclose(dagger(w) @ w, np.eye(d), atol=1e-12)
    with pytest.raises(ValueError):
        weyl_operator(2, 0, 2)


def test_bell_basis_orthonormal():
    for d in (2, 3):
        vs = bell_basis(d)
        g = np.array([[np.vdot(a, b) for b in vs] for a in vs])
        np.testing.assert_allclose(g, np.eye(d * d), atol=1e-12)
    np.testing.assert_allclose(
        bell_basis(2)[0], (ket(0, 4) + ket(3, 4)) / np.sqrt(2), atol=1e-12
    )


def test_p_range_values():
    assert p_range(2) == (-1 / 3, 1.0)
    assert p_range(3) == (-1 / 8, 1.0)


def test_depolarizing_action():
    rng = stream(151, 0)
    for d, p in ((2, 0.3), (3, -0.1), (4, 0.9)):
        ch = depolarizing_channel(d, p)
        assert ch.trace_preserving
        rho = random_density_matrix(d, rng)
        np.testing.assert_allclose(
            apply(ch, rho), p * rho + (1 - p) * np.eye(d) / d, atol=1e-10
        )
    # p = 1 is the identity, p = 0 erases everything.
    rho = random_density_matrix(2, rng)
    np.testing.assert_allclose(apply(depolarizing_channel(2, 1.0), rho), rho, atol=1e-10)
    np.testing.assert_allclose(
        apply(depolarizing_channel(2, 0.0), rho), np.eye(2) / 2, atol=1e-10
    )


def test_depolarizing_rejects_out_of_range_p():
    with pytest.raises(ChannelError):
        depolarizing_channel(2, -0.5)
    with pytest.raises(ChannelError):
        depolarizing_channel(2, 1.1)


def test_depolarizing_si_in_any_basis():
    rng = stream(151, 1)
    for d in (2, 3):
        b = Basis(random_unitary(d, rng))
        ch = depolarizing_channel(d, 0.4, b)
        assert classify_channel(ch, b).strictly_incoherent


def test_choi_boundary_eigenvalue():
    for d in (2, 3, 4):
        lo, _ = p_range(d)
        lam = eigvals_hermitian(choi(depolarizing_channel(d, lo)))
        assert abs(lam[0]) < 1e-10


def test_is_depolarizing_round_trip():
    for t in range(20):
        rng = stream(157, t)
        d = int(rng.integers(2, 5))
        lo, hi = p_range(d)
        p = float(rng.uniform(lo, hi))
        b = Basis(random_unitary(d, rng))
        got = is_depolarizing(depolarizing_channel(d, p, b))
        assert got == pytest.approx(p, abs=1e-9)


def test_is_depolarizing_rejects_lookalikes():
    assert is_depolarizing(unitary_channel(HADAMARD)) is None
    deph = KrausChannel(tuple(np.outer(ket(i, 2), ket(i, 2)) for i in range(2)))
    assert is_depolarizing(deph) is None


def test_is_unital():
    rng = stream(163, 0)
    assert is_unital(unitary_channel(random_unitary(3, rng)))
    assert is_unital(depolarizing_channel(2, 0.5))
    gamma = 0.5
    damp = KrausChannel(
        (
            np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex),
            np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex),
        )
    )
    assert not is_unital(damp)


def test_every_basis_falsifier():
    assert every_basis_falsifier(depolarizing_channel(2, 0.3), n_bases=100) is None
    deph = KrausChannel(tuple(np.outer(ket(i, 2), ket(i, 2)) for i in range(2)))
    assert every_basis_falsifier(deph, n_bases=50) is not None
    assert every_basis_falsifier(unitary_channel(HADAMARD), n_bases=50) is not None


def _two_condition_falsifier(channel, n_bases, seed, tol=1e-8):
    """The every-basis search written as two loops over matrix units: basis
    projectors must stay basis-diagonal, and the channel must commute with
    dephasing on the off-diagonal units."""
    d = channel.dim_in
    for trial in range(n_bases):
        b = Basis(random_unitary(d, stream(seed, 61, d, trial)))
        for i in range(d):
            out = apply(channel, np.outer(b.columns[:, i], b.columns[:, i].conj()))
            if np.max(np.abs(out - dephase(out, b))) > tol:
                return b
        for i in range(d):
            for j in range(d):
                if i != j:
                    unit = np.outer(b.columns[:, i], b.columns[:, j].conj())
                    lhs = dephase(apply(channel, unit), b)
                    rhs = apply(channel, dephase(unit, b))
                    if np.max(np.abs(lhs - rhs)) > tol:
                        return b
    return None


def test_every_basis_falsifier_matches_two_condition_loop():
    found = 0
    for name, ch in channel_zoo(0).items():
        got = every_basis_falsifier(ch, n_bases=20)
        want = _two_condition_falsifier(ch, n_bases=20, seed=0)
        assert (got is None) == (want is None), name
        if got is not None:
            found += 1
            np.testing.assert_array_equal(got.columns, want.columns)
    assert found > 10


def test_isotropic_decompose_round_trip():
    u, p = isotropic_decompose(isotropic_channel(HADAMARD, 0.7))
    assert p == pytest.approx(0.7, abs=1e-9)
    phase = u[0, 0] / HADAMARD[0, 0]
    assert abs(abs(phase) - 1) < 1e-8
    assert np.max(np.abs(u - phase * HADAMARD)) < 1e-8


def test_isotropic_decompose_depolarizing_gives_identity():
    u, p = isotropic_decompose(depolarizing_channel(3, 0.6))
    assert p == pytest.approx(0.6, abs=1e-9)
    assert np.max(np.abs(u - np.eye(3))) < 1e-8


def test_isotropic_decompose_rejects_dephasing():
    deph = KrausChannel(tuple(np.outer(ket(i, 2), ket(i, 2)) for i in range(2)))
    assert isotropic_decompose(deph) is None


def test_gi_fixed_point_only_for_identity():
    # Non-identity GI channels move some state; the identity moves none.
    from coherence_kit.channels import identity_channel
    from coherence_kit.coherence import random_gi_channel

    rng = stream(167, 0)
    for t in range(5):
        g = random_gi_channel(3, 2, seed=167, index=t)
        moved = False
        for _ in range(10):
            rho = random_density_matrix(3, rng)
            if np.max(np.abs(apply(g, rho) - rho)) > 1e-6:
                moved = True
                break
        assert moved
    ident = identity_channel(3)
    for _ in range(5):
        rho = random_density_matrix(3, rng)
        np.testing.assert_allclose(apply(ident, rho), rho, atol=1e-12)


def test_isotropic_channels_preserve_commutativity():
    rng = stream(173, 0)
    ch = isotropic_channel(random_unitary(3, rng), 0.55)
    for _ in range(5):
        diag1 = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
        diag2 = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
        a, b = apply(ch, diag1), apply(ch, diag2)
        assert np.max(np.abs(a @ b - b @ a)) < 1e-8


def test_zoo_size_and_manifest():
    # The zoo's names are its manifest: each says what the channel is.
    zoo = channel_zoo()
    assert len(zoo) >= 50
    assert is_depolarizing(zoo["depolarizing-d2-p0.3000"]) == pytest.approx(0.3, abs=1e-9)
    assert is_depolarizing(zoo["hadamard"]) is None
    assert is_unital(zoo["amplitude-damping-0.5"]) is False


BAD_TOLERANCES = (np.nan, np.inf, -np.inf, -1.0)


def test_is_depolarizing_rejects_bad_tolerance():
    zoo = channel_zoo()
    assert is_depolarizing(zoo["amplitude-damping-0.5"]) is None
    for tol in BAD_TOLERANCES:
        with pytest.raises(ValueError, match="tolerance"):
            is_depolarizing(zoo["amplitude-damping-0.5"], tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            is_depolarizing(zoo["bit-flip"], tol=tol)


def test_is_unital_rejects_bad_tolerance():
    identity = channel_zoo()["identity-d2"]
    assert is_unital(identity)
    for tol in BAD_TOLERANCES:
        with pytest.raises(ValueError, match="tolerance"):
            is_unital(identity, tol=tol)


def test_every_basis_falsifier_rejects_bad_tolerance():
    hadamard = channel_zoo()["hadamard"]
    assert every_basis_falsifier(hadamard, n_bases=5) is not None
    for tol in BAD_TOLERANCES:
        with pytest.raises(ValueError, match="tolerance"):
            every_basis_falsifier(hadamard, n_bases=5, tol=tol)


def test_isotropic_decompose_rejects_bad_tolerance():
    channel = channel_zoo()["isotropic-hadamard-p0.7"]
    assert isotropic_decompose(channel) is not None
    for tol in BAD_TOLERANCES:
        with pytest.raises(ValueError, match="tolerance"):
            isotropic_decompose(channel, tol=tol)
