import numpy as np
import pytest

from coherence_kit.channels import (
    BipartiteState,
    ChannelError,
    KrausChannel,
    apply,
    choi,
    compose,
    dephasing_channel,
    identity_channel,
    local_apply,
    local_branches,
    pad_trace_preserving,
    unit_images,
    unitary_channel,
    with_memory,
)
from coherence_kit.discord import basis_discord
from coherence_kit.linalg import DimensionError, eigvals_hermitian, ket, partial_trace, tensor_product
from coherence_kit.sampling import random_density_matrix, random_unitary, stream
from coherence_kit.suites import SUITES, run_suite


def test_kraus_channel_validates_completeness():
    with pytest.raises(ChannelError):
        KrausChannel((np.eye(2) * 1.5,))
    # A channel the library derives skips only the completeness eigensolve.
    assert KrausChannel._built((np.eye(2) * 1.5,)).dim_in == 2
    for make in (KrausChannel, KrausChannel._built):
        with pytest.raises(ChannelError, match="non-finite"):
            make((np.array([[1.0, 0.0], [np.nan, 1.0]]),))
    ch = KrausChannel((np.eye(2) * 0.5,))  # trace-decreasing is fine
    assert not ch.trace_preserving
    assert identity_channel(3).trace_preserving


def test_apply_dephasing_kills_offdiagonals():
    rho = np.full((3, 3), 1 / 3, dtype=complex)
    out = apply(dephasing_channel(3), rho)
    np.testing.assert_allclose(out, np.eye(3) / 3, atol=1e-12)


def _branch_probabilities(channel, rho):
    """Trace of each side-A branch of ``channel`` on rho x I/2."""
    b = np.eye(2, dtype=complex) / 2
    state = BipartiteState(tensor_product(rho, b), channel.dim_in, 2)
    return np.real(np.trace(local_branches(channel, state, "A"), axis1=1, axis2=2))


def test_local_branch_probabilities_sum_to_one():
    rng = stream(31, 0)
    rho = random_density_matrix(2, rng)
    for ch in (dephasing_channel(2), unitary_channel(random_unitary(2, rng))):
        assert _branch_probabilities(ch, rho).sum() == pytest.approx(1.0, abs=1e-12)
    # A branch the state cannot reach has probability zero.
    probs = _branch_probabilities(dephasing_channel(2), np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_allclose(probs, [1.0, 0.0], rtol=0, atol=1e-15)


def test_compose_matches_sequential_apply():
    rng = stream(31, 1)
    u = unitary_channel(random_unitary(3, rng))
    d = dephasing_channel(3)
    rho = random_density_matrix(3, rng)
    np.testing.assert_allclose(
        apply(compose(d, u), rho), apply(d, apply(u, rho)), atol=1e-12
    )


def test_choi_identity_is_max_entangled_projector():
    d = 3
    c = choi(identity_channel(d))
    alpha = sum(ket(j * d + j, d * d) for j in range(d)) / np.sqrt(d)
    np.testing.assert_allclose(c, np.outer(alpha, alpha.conj()), atol=1e-12)
    assert eigvals_hermitian(c)[-1] == pytest.approx(1.0, abs=1e-10)


def test_choi_positive_for_valid_channels():
    rng = stream(31, 2)
    ch = unitary_channel(random_unitary(2, rng))
    assert eigvals_hermitian(choi(ch))[0] > -1e-12


def test_local_apply_acts_on_declared_side():
    rng = stream(31, 3)
    a = random_density_matrix(2, rng)
    b = random_density_matrix(3, rng)
    rho = BipartiteState(tensor_product(a, b), 2, 3)
    u = random_unitary(2, rng)
    out = local_apply(unitary_channel(u), rho, "A")
    np.testing.assert_allclose(out.marginal("A"), u @ a @ u.conj().T, atol=1e-12)
    np.testing.assert_allclose(out.marginal("B"), b, atol=1e-12)


def test_with_memory_marginal_recovers_plain_action():
    rng = stream(31, 4)
    ch = dephasing_channel(2)
    rho = random_density_matrix(2, rng)
    big = apply(with_memory(ch), rho)
    np.testing.assert_allclose(
        partial_trace(big, (len(ch), 2), "B"), apply(ch, rho), atol=1e-12
    )
    # Memory populations are the outcome probabilities.
    mem = partial_trace(big, (len(ch), 2), "A")
    probs = [np.real(np.trace(k @ rho @ k.conj().T)) for k in ch.kraus]
    np.testing.assert_allclose(np.diag(mem).real, probs, atol=1e-12)


def test_with_memory_requires_trace_preserving():
    with pytest.raises(ChannelError):
        with_memory(KrausChannel((np.eye(2) * 0.5,)))


def test_pad_trace_preserving_completes_and_is_noop_when_tp():
    half = KrausChannel((np.sqrt(0.5) * np.eye(2, dtype=complex),))
    padded = pad_trace_preserving(half)
    assert padded.trace_preserving and len(padded) == 2
    ident = identity_channel(2)
    assert pad_trace_preserving(ident) is ident


def test_bipartite_state_validates():
    with pytest.raises(Exception):
        BipartiteState(np.eye(4), 2, 2)  # trace 4
    for make in (BipartiteState, BipartiteState._built):
        with pytest.raises(DimensionError):
            make(np.eye(4) / 4, 2, 3)
        with pytest.raises(ValueError, match="non-finite"):
            make(np.diag([0.5, 0.5, np.nan, 0.0]), 2, 2)


def test_kraus_stack_storage():
    ops = (np.eye(2) * np.sqrt(0.5), np.diag([1.0, -1.0]) * np.sqrt(0.5))
    ch = KrausChannel(ops)
    assert ch.kraus.shape == (2, 2, 2) and ch.kraus.dtype == complex
    assert not ch.kraus.flags.writeable
    assert len(ch) == 2
    np.testing.assert_array_equal(ch.kraus[1], ops[1])
    np.testing.assert_array_equal(np.array(list(ch.kraus)), ch.kraus)
    for make in (KrausChannel, KrausChannel._built):
        with pytest.raises(ChannelError):
            make((np.eye(2), np.eye(3)))
        with pytest.raises(ChannelError):
            make(())
        with pytest.raises(ChannelError, match="matrices"):
            make(np.eye(2))


def test_bipartite_state_storage():
    # The validating constructor keeps its validation's spectrum; ``_built``
    # computes it on first read.  Either way it is the same, bit for bit.
    for make in (BipartiteState, BipartiteState._built):
        source = random_density_matrix(6, stream(181, 0))
        kept = source.copy()
        rho = make(source, 2, 3)
        report = basis_discord(rho)
        assert not rho.state.flags.writeable and not rho.spectrum.flags.writeable
        np.testing.assert_array_equal(rho.spectrum, eigvals_hermitian(rho.state))
        source[0, 1] = source[1, 0] = 0.25
        np.testing.assert_array_equal(rho.state, kept)
        assert basis_discord(rho) == report
        with pytest.raises(ValueError):
            rho.state[0, 0] = 0.0
        with pytest.raises(ValueError):
            rho.spectrum[0] = 0.0


def test_built_objects_pass_full_validation(monkeypatch):
    # Every suite reports the same when each state and channel the library
    # derives goes through the validating constructor, and none fails it.
    def reports():
        return {
            name: {k: v for k, v in run_suite(name, trials=20, seed=5).items() if k != "wall_time"}
            for name in SUITES
        }

    trusted = reports()
    for cls in (KrausChannel, BipartiteState):
        monkeypatch.setattr(cls, "_built", classmethod(lambda cls, *args, **kwargs: cls(*args, **kwargs)))
    with pytest.raises(ChannelError):
        KrausChannel._built((np.eye(2) * 1.5,))
    with pytest.raises(ValueError):
        BipartiteState._built(np.eye(4), 2, 2)
    assert reports() == trusted


# Reference actions built from explicit Kronecker products and loops over
# the Kraus operators and matrix units.


def _ref_apply(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


def _ref_unit_images(kraus, cols):
    d = cols.shape[1]
    return np.array(
        [[_ref_apply(kraus, np.outer(cols[:, i], cols[:, j].conj())) for j in range(d)] for i in range(d)]
    )


def _ref_choi(kraus, d):
    alpha = sum(ket(j * d + j, d * d) for j in range(d)) / np.sqrt(d)
    big = [tensor_product(k, np.eye(d)) for k in kraus]
    return _ref_apply(big, np.outer(alpha, alpha.conj()))


def _ref_local(kraus, rho, dims, side):
    other = np.eye(dims[1] if side == "A" else dims[0])
    big = [tensor_product(k, other) if side == "A" else tensor_product(other, k) for k in kraus]
    return _ref_apply(big, rho)


def _random_channel(d_in, d_out, r, rng):
    g = rng.normal(size=(r * d_out, d_in)) + 1j * rng.normal(size=(r * d_out, d_in))
    q, _ = np.linalg.qr(g)
    return KrausChannel(q.reshape(r, d_out, d_in))


BATCHED_CASES = {
    "unitary r=1": lambda rng: unitary_channel(random_unitary(3, rng)),
    "qubit r=d^2": lambda rng: _random_channel(2, 2, 4, rng),
    "qutrit r=d^2": lambda rng: _random_channel(3, 3, 9, rng),
    "with_memory d_out!=d_in": lambda rng: with_memory(_random_channel(2, 2, 3, rng)),
    "isometry d_out>d_in": lambda rng: _random_channel(2, 3, 2, rng),
}


@pytest.mark.parametrize("case", sorted(BATCHED_CASES))
def test_batched_actions_match_loop_reference(case):
    rng = stream(31, 6, sorted(BATCHED_CASES).index(case))
    ch = BATCHED_CASES[case](rng)
    d, d_out = ch.dim_in, ch.dim_out
    rho = random_density_matrix(d, rng)
    np.testing.assert_allclose(apply(ch, rho), _ref_apply(ch.kraus, rho), rtol=0, atol=1e-12)
    np.testing.assert_allclose(choi(ch), _ref_choi(ch.kraus, d), rtol=0, atol=1e-12)
    np.testing.assert_allclose(unit_images(ch), _ref_unit_images(ch.kraus, np.eye(d)), rtol=0, atol=1e-12)
    # The kernel on a channel with rotated inputs gives the images of E(|b_i><b_j|).
    cols = random_unitary(d, rng)
    rotated = KrausChannel._built(ch.kraus @ cols)
    np.testing.assert_allclose(unit_images(rotated), _ref_unit_images(ch.kraus, cols), rtol=0, atol=1e-12)
    for side, dims in (("A", (d, 2)), ("B", (3, d))):
        state = BipartiteState(random_density_matrix(dims[0] * dims[1], rng), *dims)
        out = local_apply(ch, state, side)
        assert out.dims == ((d_out, 2) if side == "A" else (3, d_out))
        np.testing.assert_allclose(out.state, _ref_local(ch.kraus, state.state, dims, side), rtol=0, atol=1e-12)


LOCAL_KERNEL_CASES = {
    "A r=1": lambda rng: ("A", (2, 3), unitary_channel(random_unitary(2, rng))),
    "A r=d^2": lambda rng: ("A", (2, 2), _random_channel(2, 2, 4, rng)),
    "B r=d^2": lambda rng: ("B", (2, 3), _random_channel(3, 3, 9, rng)),
    # A = memory x system, as the memory trial's recorded-outcome state has it.
    "A memory d_A=4": lambda rng: ("A", (4, 2), _random_channel(4, 4, 3, rng)),
}


@pytest.mark.parametrize("case", sorted(LOCAL_KERNEL_CASES))
def test_local_kernel_matches_kron_reference(case):
    rng = stream(31, 7, sorted(LOCAL_KERNEL_CASES).index(case))
    side, dims, ch = LOCAL_KERNEL_CASES[case](rng)
    rho = random_density_matrix(dims[0] * dims[1], rng)
    state = BipartiteState(rho, *dims)
    branches = local_branches(ch, state, side)
    for k, got in zip(ch.kraus, branches):
        np.testing.assert_allclose(got, _ref_local((k,), rho, dims, side), rtol=0, atol=1e-14)
    np.testing.assert_array_equal(local_apply(ch, state, side).state, branches.sum(axis=0))


def test_local_apply_rejects_bad_side_and_dimension():
    rho = BipartiteState(np.eye(6) / 6, 2, 3)
    with pytest.raises(ValueError, match="side"):
        local_apply(identity_channel(2), rho, "C")
    with pytest.raises(DimensionError, match="side B"):
        local_apply(identity_channel(2), rho, "B")
