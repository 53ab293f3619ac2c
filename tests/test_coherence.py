import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from coherence_kit.channels import ChannelError, KrausChannel, apply, unitary_channel, with_memory
from coherence_kit.coherence import (
    CF_MAX_ITER,
    Basis,
    _cf_gradient,
    _cf_hessian,
    _cf_point,
    classify_channel,
    classify_kraus,
    coherence_measures,
    dephase,
    dephasing_commutant_deviation,
    dilation_apply,
    dilation_construct,
    dilation_verify,
    fidelity_coherence,
    fidelity_coherence_report,
    random_gi_channel,
    random_incoherent_not_si_channel,
    random_si_channel,
    rel_ent_coherence,
)
from coherence_kit.linalg import CF_GAP_TOL, above_noise_floor, dagger, fidelity, matrix_function
from coherence_kit.sampling import random_density_matrix, random_pure_state, random_unitary, stream

NON_SI = KrausChannel(
    (
        np.array([[1, 1], [0, 0]], dtype=complex) / np.sqrt(2),
        np.array([[0, 0], [1, -1]], dtype=complex) / np.sqrt(2),
    )
)


def test_dephase_computational_and_rotated():
    rho = np.full((2, 2), 0.5, dtype=complex)
    np.testing.assert_allclose(dephase(rho), np.eye(2) / 2, atol=1e-12)
    rng = stream(37, 0)
    b = Basis(random_unitary(2, rng))
    out = dephase(rho, b)
    coords = b.to_coords(out)
    assert np.max(np.abs(coords - np.diag(np.diag(coords)))) < 1e-12
    # Idempotent.
    np.testing.assert_allclose(dephase(out, b), out, atol=1e-12)


def test_classify_kraus_patterns():
    diag = classify_kraus(np.diag([0.3, 0.7j]))
    assert diag.genuinely_incoherent and diag.strictly_incoherent and diag.incoherent
    perm = classify_kraus(np.array([[0, 0.5], [0.5, 0]], dtype=complex))
    assert perm.strictly_incoherent and not perm.genuinely_incoherent
    assert perm.permutation == (1, 0)
    # Two entries in one row: incoherent but not SI.
    row = classify_kraus(np.array([[0.5, 0.5], [0, 0]], dtype=complex))
    assert row.incoherent and not row.strictly_incoherent
    # Two entries in one column: not incoherent at all.
    col = classify_kraus(np.array([[0.5, 0], [0.5, 0]], dtype=complex))
    assert not col.incoherent


def test_classify_channel_hierarchy_flags():
    rep = classify_channel(NON_SI)
    assert rep.incoherent and not rep.strictly_incoherent
    assert not rep.commutes_with_dephasing

    si = random_si_channel(3, 2, seed=41)
    rep = classify_channel(si)
    assert rep.strictly_incoherent and rep.commutes_with_dephasing

    gi = random_gi_channel(3, 2, seed=41)
    rep = classify_channel(gi)
    assert rep.genuinely_incoherent and rep.strictly_incoherent


def test_classify_unitary_not_incoherent():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    rep = classify_channel(unitary_channel(h))
    assert not rep.incoherent


def test_covariance_flag():
    # Lowering-style operator shifts every basis state by the same amount.
    lower = KrausChannel(
        (np.diag([1.0, 0.0]).astype(complex), np.array([[0, 1], [0, 0]], dtype=complex))
    )
    rep = classify_channel(lower, observable=np.array([0.0, 1.0]))
    assert rep.covariant
    rep = classify_channel(NON_SI, observable=np.array([0.0, 1.0]))
    assert not rep.covariant


def test_classification_in_rotated_basis():
    rng = stream(43, 0)
    u = random_unitary(3, rng)
    b = Basis(u)
    si = random_si_channel(3, 2, seed=43)
    rotated = KrausChannel(tuple(u @ k @ dagger(u) for k in si.kraus))
    assert classify_channel(rotated, b).strictly_incoherent
    assert not classify_channel(rotated).strictly_incoherent


def test_dilation_reproduces_selected_outcomes():
    for t in range(10):
        rng = stream(47, t)
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        e = random_si_channel(d, n, seed=47, index=t)
        spec = dilation_construct(e)
        assert spec.ancilla_dim == len(e) + 1
        assert dilation_verify(spec, e, n_states=5, seed=t) < 1e-10


def test_dilation_outcomes_sum_to_channel_action():
    e = random_si_channel(3, 2, seed=53)
    spec = dilation_construct(e)
    rng = stream(53, 1)
    rho = random_density_matrix(3, rng)
    outcomes = dilation_apply(spec, rho)
    np.testing.assert_allclose(sum(outcomes), apply(e, rho), atol=1e-10)


def test_dilation_rejects_non_si():
    with pytest.raises(ChannelError):
        dilation_construct(NON_SI)


def test_rel_ent_coherence_known_values():
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert rel_ent_coherence(plus) == pytest.approx(1.0, abs=1e-10)
    assert rel_ent_coherence(np.eye(2) / 2) == pytest.approx(0.0, abs=1e-10)


def test_rel_ent_coherence_vanishes_in_own_eigenbasis():
    rng = stream(59, 0)
    rho = random_density_matrix(3, rng)
    from coherence_kit.linalg import eig_hermitian

    _, v = eig_hermitian(rho)
    assert rel_ent_coherence(rho, Basis(v)) == pytest.approx(0.0, abs=1e-8)


def test_fidelity_coherence_plus_state():
    plus = np.full((2, 2), 0.5, dtype=complex)
    got = fidelity_coherence(plus, restarts=8)
    assert got == pytest.approx(1 - np.sqrt(0.5), abs=1e-6)


def test_fidelity_coherence_pure_state_closed_form():
    # For a pure state C_f = 1 - max_i |psi_i|; the optimizer's value is an
    # upper bound, so it may never fall below the closed form.
    for t in range(30):
        psi = random_pure_state(3, stream(97, t))
        closed = 1.0 - np.max(np.abs(psi))
        got = fidelity_coherence(np.outer(psi, psi.conj()), restarts=1, seed=t)
        assert closed - 1e-12 <= got <= closed + 1e-6


def _cf_interval(rho, basis=None):
    rep = fidelity_coherence_report(rho, basis)
    assert rep["lower_bound"] == max(0.0, rep["value"] - rep["gap"])
    assert rep["value"] == fidelity_coherence(rho, basis)
    return rep


def test_fidelity_coherence_certifies_pure_state_closed_form():
    for t in range(30):
        psi = random_pure_state(2 + t % 3, stream(98, t))
        closed = 1.0 - np.max(np.abs(psi))
        rep = _cf_interval(np.outer(psi, psi.conj()))
        assert rep["lower_bound"] - 1e-12 <= closed <= rep["value"] + 1e-12


def test_fidelity_coherence_certifies_qubit_closed_form():
    # Qubit geometric coherence (Streltsov et al., arXiv:1502.05876) in root
    # fidelity: max_sigma F = sqrt((1 + sqrt(1 - 4|rho_01|^2)) / 2).
    for t in range(200):
        rho = random_density_matrix(2, stream(99, t))
        closed = 1.0 - np.sqrt((1.0 + np.sqrt(1.0 - 4.0 * abs(rho[0, 1]) ** 2)) / 2.0)
        rep = _cf_interval(rho)
        assert rep["lower_bound"] - 1e-12 <= closed <= rep["value"] + 1e-12


def test_fidelity_coherence_in_rotated_basis():
    rng = stream(100, 0)
    for d in (2, 3, 4):
        u = random_unitary(d, rng)
        coords = random_density_matrix(d, rng)
        plain = fidelity_coherence_report(coords)
        rotated = _cf_interval(u @ coords @ dagger(u), Basis(u))
        assert rotated["value"] == pytest.approx(plain["value"], abs=1e-12)
        assert rotated["converged"]
        psi = random_pure_state(d, rng)
        closed = 1.0 - np.max(np.abs(psi))
        ket_ = u @ psi
        rep = _cf_interval(np.outer(ket_, ket_.conj()), Basis(u))
        assert rep["lower_bound"] - 1e-12 <= closed <= rep["value"] + 1e-12


def test_fidelity_coherence_with_zero_or_negative_populations():
    # An empty level comes out of a basis change as a +-1e-17 population,
    # and the validator admits states with entries a little below zero.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in range(12):
            rng = stream(102, t)
            d = 3 + t % 2
            u = random_unitary(d, rng)
            p = np.zeros(d)
            p[: d - 1] = rng.dirichlet(np.ones(d - 1))
            rep = _cf_interval(u @ np.diag(p) @ dagger(u), Basis(u))
            assert rep["converged"] and rep["value"] == pytest.approx(0.0, abs=1e-12)
            qubit = random_density_matrix(2, rng)
            rho = np.zeros((3, 3), dtype=complex)
            rho[:2, :2] = qubit
            rho[2, 2] = -1e-15
            closed = 1.0 - np.sqrt((1.0 + np.sqrt(1.0 - 4.0 * abs(qubit[0, 1]) ** 2)) / 2.0)
            rep = _cf_interval(rho)
            assert rep["converged"]
            assert rep["lower_bound"] - 1e-12 <= closed <= rep["value"] + 1e-12


def _nelder_mead_cf(rho, restarts=20, seed=0):
    """The former C_f optimizer: Nelder-Mead over a softmax chart of the
    simplex from the dephased diagonal and restarts - 1 Dirichlet samples."""
    d = rho.shape[0]

    def objective(x):
        w = np.exp(x - np.max(x))
        return 1.0 - fidelity(rho, np.diag(w / np.sum(w)).astype(complex))

    diag = np.clip(np.real(np.diag(rho)), 1e-6, None)
    starts = [np.log(diag / np.sum(diag))]
    rng = stream(seed, 91, d)
    for _ in range(restarts - 1):
        starts.append(np.log(np.clip(rng.dirichlet(np.ones(d)), 1e-6, None)))
    opts = {"xatol": 1e-9, "fatol": 1e-9, "maxiter": 400 * d}
    return max(0.0, min(float(minimize(objective, x0, method="Nelder-Mead", options=opts).fun) for x0 in starts))


def test_fidelity_coherence_never_above_nelder_mead_reference():
    for t, (d, kind) in enumerate((d, k) for d in (2, 3, 4) for k in ("pure", "rank-2", "full-rank")):
        rng = stream(101, t)
        if kind == "full-rank":
            rho = random_density_matrix(d, rng)
        else:
            vecs = [random_pure_state(d, rng) for _ in range(1 if kind == "pure" else 2)]
            p = rng.uniform(0.2, 0.8, size=len(vecs))
            rho = sum(w * np.outer(v, v.conj()) for w, v in zip(p / p.sum(), vecs))
        rep = _cf_interval(rho)
        assert rep["converged"] and rep["gap"] <= 1e-10
        assert rep["value"] <= _nelder_mead_cf(rho, seed=t) + 1e-9


def _fixed_point_cf(rho):
    """The former C_f solver: the KKT multiplicative fixed point
    w_i <- w_i dF_i / w . dF from the dephased diagonal, stopped by the same
    Frank-Wolfe gap or after CF_MAX_ITER steps.  Returns (value, converged)."""
    diag = np.clip(np.real(np.diag(rho)), 0.0, None)
    w = diag / np.sum(diag)
    root = matrix_function(rho, "sqrt")
    best, bound = float(np.sqrt(np.max(diag))), np.inf
    for _ in range(CF_MAX_ITER + 1):
        _, sv, vh = np.linalg.svd(np.sqrt(w)[:, None] * root)
        keep = above_noise_floor(sv**2)
        grad = 0.5 * (np.abs(root @ dagger(vh[keep])) ** 2) @ (1.0 / sv[keep])
        f = float(np.sum(sv))
        bound = min(bound, f + float(np.max(grad) - w @ grad))
        best = max(best, f)
        if bound - best <= CF_GAP_TOL:
            return 1.0 - best, True
        w = w * grad / (w @ grad)
    return 1.0 - best, False


@pytest.mark.parametrize("d", [3, 4])
def test_cf_derivatives_match_central_differences(d):
    # F(w) = ||diag(w)^{1/2} sqrt(rho)||_1 on the positive orthant: the
    # gradient against differences of F, the Hessian against differences of
    # the gradient, both with step 1e-5.
    h = 1e-5
    for t in range(5):
        rng = stream(133, d, t)
        root = matrix_function(random_density_matrix(d, rng), "sqrt")
        w = rng.dirichlet(np.ones(d))
        _, s, u = _cf_point(w, root)
        grad, hess = _cf_gradient(s, u), _cf_hessian(s, u)
        e = h * np.eye(d)
        fd_grad = np.array([(_cf_point(w + e[i], root)[0] - _cf_point(w - e[i], root)[0]) / (2 * h) for i in range(d)])
        fd_hess = np.array([(_cf_gradient(*_cf_point(w + e[j], root)[1:]) - _cf_gradient(*_cf_point(w - e[j], root)[1:])) / (2 * h) for j in range(d)])
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-6)
        np.testing.assert_allclose(hess, fd_hess, rtol=1e-5, atol=1e-5 * np.abs(hess).max())
        np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-14)
        assert np.linalg.eigvalsh(hess).max() <= 0.0


def test_cf_converges_on_every_rank_two_state():
    # Optima on a face of the simplex with nearly tied gradients left the
    # fixed point at CF_MAX_ITER on about 1 in 300 rank-2 states.
    oracle_converged = 0
    for t in range(300):
        d = 2 + t % 3
        rho = random_density_matrix(d, stream(131, t), rank=2)
        rep = fidelity_coherence_report(rho)
        assert rep["converged"] and rep["lower_bound"] <= rep["value"], (t, rep)
        value, converged = _fixed_point_cf(rho)
        if converged:
            oracle_converged += 1
            assert rep["value"] <= value + CF_GAP_TOL, t
    assert oracle_converged >= 290


@pytest.mark.parametrize("d", [2, 3])
def test_cf_newton_steps_on_full_rank_states(d):
    # A fall back to the fixed point's linear rate (median 30-40 steps) shows
    # here as more than 15 iterations.
    for t in range(100):
        rho = random_density_matrix(d, stream(132, d, t))
        rep = fidelity_coherence_report(rho)
        assert rep["converged"] and rep["iterations"] <= 15, (t, rep)
        value, converged = _fixed_point_cf(rho)
        assert converged and rep["value"] <= value + CF_GAP_TOL, t


def test_coherence_measures_bounds():
    rng = stream(61, 0)
    for t in range(5):
        rho = random_density_matrix(3, rng)
        m = coherence_measures(rho)
        assert m["C"] >= -1e-10
        # The optimized fidelity measure never exceeds the dephased one.
        assert m["C_f"] <= m["C_f_dephased"] + 1e-8


def test_random_si_channel_is_tp_and_si():
    for t in range(10):
        e = random_si_channel(2 + t % 3, 1 + t % 4, seed=67, index=t)
        assert e.trace_preserving
        assert classify_channel(e).strictly_incoherent


def test_random_incoherent_not_si_violates_commutation():
    for t in range(10):
        e = random_incoherent_not_si_channel(2 + t % 3, seed=71, index=t)
        rep = classify_channel(e)
        assert e.trace_preserving
        assert rep.incoherent and not rep.strictly_incoherent
        assert dephasing_commutant_deviation(e) > 1e-4


def test_si_channels_commute_with_dephasing():
    for t in range(10):
        e = random_si_channel(2 + t % 3, 2, seed=73, index=t)
        assert dephasing_commutant_deviation(e) < 1e-10


def _loop_deviation(e, b=None):
    cols = np.eye(e.dim_in) if b is None else b.columns
    want = 0.0
    for i in range(e.dim_in):
        for j in range(e.dim_in):
            unit = np.outer(cols[:, i], cols[:, j].conj())
            diff = dephase(apply(e, unit), b) - apply(e, dephase(unit, b))
            want = max(want, float(np.max(np.abs(diff))))
    return want


def test_dephasing_deviation_in_rotated_basis_matches_loop():
    rng = stream(79, 0)
    for e in (
        NON_SI,
        random_incoherent_not_si_channel(3, seed=79, index=0),
        random_si_channel(3, 2, seed=79),
        unitary_channel(random_unitary(4, rng)),
    ):
        b = Basis(random_unitary(e.dim_in, rng))
        want = _loop_deviation(e, b)
        assert dephasing_commutant_deviation(e, b) == pytest.approx(want, rel=0, abs=1e-12)
        assert want > 1e-4
    # A channel whose output is larger than its input, in the computational basis.
    memory = with_memory(NON_SI)
    want = _loop_deviation(memory)
    assert dephasing_commutant_deviation(memory) == pytest.approx(want, rel=0, abs=1e-12)
