import math

import numpy as np
import pytest

from coherence_kit.channels import choi
from coherence_kit.linalg import (
    DimensionError,
    InvalidStateError,
    METRICS,
    NotHermitianError,
    dagger,
    dephase_subsystem,
    distance,
    eig_hermitian,
    eigvals_hermitian,
    entropy,
    fidelity,
    is_density_matrix,
    matrix_function,
    partial_trace,
    projector,
    relative_entropy,
    tensor_product,
    trace_distance,
    validate_density_matrix,
)
from coherence_kit.sampling import (
    draw,
    random_density_matrix,
    random_pure_state,
    random_unitary,
    stream,
)
from coherence_kit.universal import depolarizing_channel


def shannon_entropy(p) -> float:
    """Shannon entropy in bits of a probability vector, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-12]
    return float(-np.sum(p * np.log2(p)))


def random_hermitian(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + dagger(g)) / 2


def degenerate_hermitian():
    """Degenerate and rank-deficient spectra: the identity, a rank-one
    projector and Choi matrices of depolarizing channels at the CP boundary
    (one eigenvalue 0, the rest equal), up to d = 16."""
    cases = [np.eye(3, dtype=complex), projector(random_pure_state(5, stream(3, 1)))]
    cases += [choi(depolarizing_channel(d, -1.0 / (d * d - 1))) for d in (2, 3, 4)]
    return cases


def test_eig_reconstruction_500_random():
    mats = degenerate_hermitian()
    for t in range(500):
        rng = stream(3, 0, t)
        d = int(rng.integers(2, 17))
        mats.append(random_hermitian(d, rng))
    worst = 0.0
    for m in mats:
        lam, v = eig_hermitian(m)
        worst = max(worst, np.max(np.abs((v * lam) @ dagger(v) - m)))
    assert worst < 1e-9


def test_eig_matches_numpy_eigenvalues():
    rng = stream(5, 1)
    for m in [random_hermitian(5, rng) for _ in range(50)] + degenerate_hermitian():
        lam = eigvals_hermitian(m)
        assert np.all(np.diff(lam) >= 0.0)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(m), atol=1e-10)


def test_eig_descending_and_unitary_vectors():
    rng = stream(5, 2)
    for m in [random_hermitian(4, rng), random_hermitian(16, rng)] + degenerate_hermitian():
        n = m.shape[0]
        lam, v = eig_hermitian(m)
        assert np.all(np.diff(lam) <= 0.0)
        assert np.max(np.abs(dagger(v) @ v - np.eye(n))) < 1e-10
        np.testing.assert_allclose(lam, eigvals_hermitian(m)[::-1], atol=1e-12)
    for bad in (np.array([[0, 1], [0, 0]], dtype=complex), np.diag([1.0, np.nan])):
        with pytest.raises(NotHermitianError):
            eig_hermitian(bad)
        with pytest.raises(NotHermitianError):
            eigvals_hermitian(bad)


def test_stacked_eigvals_match_each_matrix_and_name_the_bad_one():
    rng = stream(5, 3)
    for n in (2, 4, 6, 9, 16):
        stack = np.array([random_hermitian(n, rng) for _ in range(4)])
        lam = eigvals_hermitian(stack)
        for k, m in enumerate(stack):
            np.testing.assert_array_equal(lam[k], eigvals_hermitian(m))
    stack = np.array([np.eye(3, dtype=complex)] * 4)
    stack[2, 1, 1] = np.nan
    with pytest.raises(NotHermitianError, match="matrix at stack index 2 has a non-finite entry"):
        eigvals_hermitian(stack)
    stack[2, 1, 1] = 1.0
    stack[1, 0, 2] = 1e-3
    with pytest.raises(NotHermitianError, match="matrix at stack index 1: max"):
        eigvals_hermitian(stack)
    with pytest.raises(NotHermitianError, match=r"at stack index \(1, 1\)"):
        eigvals_hermitian(stack.reshape(2, 2, 3, 3)[::-1])
    with pytest.raises(NotHermitianError, match="^matrix: max"):
        eigvals_hermitian(stack[1])


def test_eigvals_identity_and_pauli_x():
    np.testing.assert_allclose(eigvals_hermitian(np.eye(3)), np.ones(3))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    np.testing.assert_allclose(eigvals_hermitian(x), [-1.0, 1.0], atol=1e-12)


def test_partial_trace_product_state():
    rng = stream(7, 0)
    a = random_density_matrix(2, rng)
    b = random_density_matrix(3, rng)
    full = tensor_product(a, b)
    np.testing.assert_allclose(partial_trace(full, (2, 3), "A"), a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(full, (2, 3), "B"), b, atol=1e-12)


def test_partial_trace_bad_dims():
    with pytest.raises(DimensionError):
        partial_trace(np.eye(6), (2, 2), "A")


def test_entropy_known_values():
    assert entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    # diag(3/8, 1/8, 1/4, 1/4) has entropy 1.9056 bits.
    got = entropy(np.diag([0.375, 0.125, 0.25, 0.25]))
    want = shannon_entropy([0.375, 0.125, 0.25, 0.25])
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(1.9056, abs=1e-4)


def test_entropy_bounds_on_samples():
    for t in range(50):
        rng = stream(11, t)
        d = int(rng.integers(2, 5))
        s = entropy(random_density_matrix(d, rng))
        assert -1e-10 <= s <= math.log2(d) + 1e-10


def test_relative_entropy_nonnegative_zero_iff_equal():
    rng = stream(13, 0)
    for t in range(30):
        rho = random_density_matrix(3, rng)
        sig = random_density_matrix(3, rng)
        val = relative_entropy(rho, sig)
        assert val >= -1e-9
        if trace_distance(rho, sig) < 1e-8:
            assert val < 1e-7
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-9)


def test_relative_entropy_kernel_overlap_infinite():
    rho = np.eye(2) / 2
    sig = np.diag([1.0, 0.0])
    assert relative_entropy(rho, sig) == math.inf


def test_fidelity_pure_states_and_symmetry():
    rng = stream(17, 0)
    for _ in range(20):
        rho = random_density_matrix(3, rng)
        sig = random_density_matrix(3, rng)
        assert abs(fidelity(rho, sig) - fidelity(sig, rho)) < 1e-9
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    # F(|psi><psi|, sigma) = sqrt(<psi|sigma|psi>): the rank-one square root
    # must not turn eigenvalue noise into a 1e-8 excess.
    for _ in range(20):
        psi = random_pure_state(3, rng)
        sig = random_density_matrix(3, rng)
        want = np.sqrt(np.real(psi.conj() @ sig @ psi))
        assert abs(fidelity(projector(psi), sig) - want) < 1e-12


def test_distance_contractivity_under_unitaries():
    rng = stream(19, 0)
    for t in range(20):
        d = int(rng.integers(2, 5))
        rho = random_density_matrix(d, rng)
        sig = random_density_matrix(d, rng)
        u = random_unitary(d, rng)
        for metric in METRICS:
            before = distance(metric, rho, sig)
            after = distance(metric, u @ rho @ dagger(u), u @ sig @ dagger(u))
            assert after <= before + 1e-9


def test_matrix_function_sqrt_and_inverse():
    rng = stream(23, 0)
    rho = random_density_matrix(4, rng)
    root = matrix_function(rho, "sqrt")
    np.testing.assert_allclose(root @ root, rho, atol=1e-10)
    inv_root = matrix_function(rho, "inv_sqrt")
    np.testing.assert_allclose(inv_root @ rho @ inv_root, np.eye(4), atol=1e-8)


def test_matrix_function_respects_kernel():
    rho = np.diag([0.5, 0.5, 0.0])
    inv_root = matrix_function(rho, "inv_sqrt")
    assert abs(inv_root[2, 2]) < 1e-12


def test_validate_density_matrix_rejects_bad_inputs():
    with pytest.raises(InvalidStateError):
        validate_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(InvalidStateError):
        validate_density_matrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))
    assert not is_density_matrix(np.diag([1.5, -0.5]))
    assert not is_density_matrix(np.array([[0.5, np.nan], [np.nan, 0.5]]))
    assert not is_density_matrix(np.diag([np.inf, 0.5]))
    assert is_density_matrix(np.eye(3) / 3)


def test_dephase_subsystem_middle_factor():
    rng = stream(29, 0)
    rho = random_density_matrix(8, rng)
    out = dephase_subsystem(rho, (2, 2, 2), 1)
    t = out.reshape(2, 2, 2, 2, 2, 2)
    for i in range(2):
        for j in range(2):
            if i != j:
                assert np.max(np.abs(t[:, i, :, :, j, :])) < 1e-14
    assert np.trace(out) == pytest.approx(1.0, abs=1e-12)


def test_sampler_determinism_and_validity():
    u1 = draw(1, "unitary", 2)
    u2 = draw(1, "unitary", 2)
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(dagger(u1) @ u1 - np.eye(2))) < 1e-12
    rho = draw(1, "density_matrix", 3)
    assert is_density_matrix(rho)
    assert not np.array_equal(draw(1, "unitary", 2, index=1), u1)
