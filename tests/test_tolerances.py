"""The tolerance table in ``linalg`` and the decisions it gates.

Each gating tolerance is probed at 0.1x and 10x its value: the decision must
fall on the side the table documents.  Edge inputs (pure, rank-deficient and
degenerate states, depolarizing p at the CP boundary) come from hypothesis.
"""

import io
import pathlib
import re
import tokenize

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherence_kit import channels, coherence, discord, linalg, universal
from coherence_kit.channels import BipartiteState, ChannelError, KrausChannel, pad_trace_preserving
from coherence_kit.coherence import Basis, classify_kraus, fidelity_coherence_report, rel_ent_coherence
from coherence_kit.discord import basis_discord, zero_discord_decompose
from coherence_kit.linalg import (
    CP_SLACK,
    NEGLIGIBLE_P,
    STRUCTURE_TOL,
    VALIDATION_TOL,
    InvalidStateError,
    dagger,
    entropy,
    is_density_matrix,
    tensor_product,
)
from coherence_kit.sampling import random_density_matrix, random_pure_state, random_unitary, stream
from coherence_kit.universal import depolarizing_channel, is_depolarizing, p_range

EDGE = settings(max_examples=30, deadline=None, derandomize=True, database=None)
dims = st.integers(min_value=2, max_value=4)
seeds = st.integers(min_value=0, max_value=2**20)
# Below (0.1x) or above (10x) a tolerance.
factors = st.sampled_from([0.1, 10.0])

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE_ROW = re.compile(r"^([A-Z][A-Z_]+)\s+(\S+(?: eps)?)\s{2,}", re.M)


def _table_rows(text):
    return {name: value for name, value in TABLE_ROW.findall(text) if name != "Name"}


def _documented(value: str) -> float:
    if value.endswith(" eps"):
        return float(value[: -len(" eps")]) * np.finfo(float).eps
    return float(value)


def test_table_documents_every_constant_with_its_value():
    rows = _table_rows(linalg.__doc__)
    assert len(rows) >= 20
    for name, value in rows.items():
        assert getattr(linalg, name) == _documented(value), name
    table = linalg.__doc__[linalg.__doc__.index("=====") :].rstrip()
    assert table in (ROOT / "README.md").read_text()


@pytest.mark.parametrize("module", [channels, coherence, discord, universal, linalg])
def test_no_tolerance_literal_outside_the_table(module):
    """Small float literals in code (not in comments or docstrings) appear only
    as the table's own assignments."""
    source = pathlib.Path(module.__file__).read_text()
    lines = source.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NUMBER and re.search(r"e-\d", tok.string):
            line = lines[tok.start[0] - 1]
            assert module is linalg and re.match(r"^[A-Z_]+ = ", line), line


# --- validation: density matrices and bases -------------------------------


@EDGE
@given(d=dims, seed=seeds, f=factors)
def test_density_validation_gates_at_tolerance(d, seed, f):
    rng = stream(seed, 1)
    eps = f * VALIDATION_TOL
    accepted = f < 1.0
    rho = random_density_matrix(d, rng)
    # Non-Hermitian by eps.
    skew = rho.copy()
    skew[0, 1] += eps
    assert is_density_matrix(skew) == accepted
    # Trace off by eps.
    assert is_density_matrix(rho + eps * np.diag(np.eye(d)[0])) == accepted
    # Unit trace with smallest eigenvalue -eps.
    u = random_unitary(d, rng)
    neg = (1.0 + eps) * np.outer(u[:, 0], u[:, 0].conj()) - eps * np.outer(u[:, 1], u[:, 1].conj())
    assert is_density_matrix(neg) == accepted
    if not accepted:
        with pytest.raises(InvalidStateError):
            BipartiteState(np.kron(neg, np.eye(2) / 2), d, 2)


@EDGE
@given(d=dims, seed=seeds, f=factors)
def test_basis_unitarity_gates_at_tolerance(d, seed, f):
    u = random_unitary(d, stream(seed, 2))
    stretch = np.ones(d)
    stretch[0] = np.sqrt(1.0 + f * VALIDATION_TOL)
    if f < 1.0:
        Basis(u * stretch)
    else:
        with pytest.raises(ValueError, match="unitary"):
            Basis(u * stretch)


# --- the trace-preserving check ----------------------------------------


@EDGE
@given(d=dims, seed=seeds, f=factors)
def test_trace_preserving_check_gates_at_tolerance(d, seed, f):
    u = random_unitary(d, stream(seed, 3))
    eps = f * VALIDATION_TOL
    below = KrausChannel((np.sqrt(1.0 - eps) * u,))
    if f < 1.0:
        over = KrausChannel((np.sqrt(1.0 + eps) * u,))
        assert over.trace_preserving and below.trace_preserving
        assert pad_trace_preserving(below) is below
    else:
        with pytest.raises(ChannelError, match="exceeds identity"):
            KrausChannel((np.sqrt(1.0 + eps) * u,))
        assert not below.trace_preserving
        padded = pad_trace_preserving(below)
        assert len(padded) == 2 and padded.trace_preserving


# --- the structure cutoff ------------------------------------------------


@EDGE
@given(d=dims, seed=seeds, f=factors, scale=st.floats(min_value=1e-3, max_value=1e3))
def test_structure_cutoff_gates_at_tolerance(d, seed, f, scale):
    rng = stream(seed, 4)
    phases = np.exp(2j * np.pi * rng.random(d))
    k = scale * np.diag(phases)
    i, j = rng.choice(d, size=2, replace=False)
    k[i, j] = f * STRUCTURE_TOL * scale
    form = classify_kraus(k)
    significant = f > 1.0
    assert form.incoherent == (not significant)
    assert form.genuinely_incoherent == (not significant)
    assert (form.violation > STRUCTURE_TOL) == significant


# --- the negligible-branch cutoff -----------------------------------------


@EDGE
@given(d=dims, seed=seeds, f=factors)
def test_negligible_block_cutoff_gates_at_tolerance(d, seed, f):
    rng = stream(seed, 5)
    w = f * NEGLIGIBLE_P
    heavy = tensor_product(np.diag(np.eye(d)[0]), random_density_matrix(2, rng))
    light = tensor_product(np.diag(np.eye(d)[1]), random_density_matrix(2, rng))
    rho = BipartiteState((1.0 - w) * heavy + w * light, d, 2)
    dec = zero_discord_decompose(rho)
    assert dec.success
    assert len(dec.blocks) == (1 if f < 1.0 else 2)


# --- depolarizing p at the edge of the CP range ----------------------------


@EDGE
@given(d=dims, f=st.sampled_from([-10.0, -1.0, -0.1, 0.1, 1.0, 10.0]), upper=st.booleans())
def test_depolarizing_cp_slack(d, f, upper):
    lo, hi = p_range(d)
    # f > 0 steps outside the range, f < 0 inside.
    p = hi + f * CP_SLACK if upper else lo - f * CP_SLACK
    if f <= 1.0:
        channel = depolarizing_channel(d, p)
        assert channel.trace_preserving
        assert is_depolarizing(channel) == pytest.approx(min(max(p, lo), hi), abs=1e-9)
    else:
        with pytest.raises(ChannelError, match="CP range"):
            depolarizing_channel(d, p)


# --- pure, rank-deficient and degenerate states ----------------------------


@EDGE
@given(d=dims, seed=seeds)
def test_pure_states(d, seed):
    psi = random_pure_state(d, stream(seed, 6))
    rho = np.outer(psi, psi.conj())
    assert entropy(rho) == pytest.approx(0.0, abs=1e-12)
    c = rel_ent_coherence(rho)
    shannon = -sum(p * np.log2(p) for p in np.abs(psi) ** 2 if p > 1e-12)
    assert c == pytest.approx(shannon, abs=1e-9)
    rep = fidelity_coherence_report(rho)
    assert rep["value"] == pytest.approx(1.0 - np.max(np.abs(psi)), abs=1e-12)
    assert rep["gap"] == 0.0 and rep["converged"]


@EDGE
@given(d=dims, seed=seeds, rank=st.integers(min_value=1, max_value=3))
def test_rank_deficient_bipartite_states(d, seed, rank):
    rng = stream(seed, 7)
    rho = BipartiteState(random_density_matrix(2 * d, rng, rank=rank), d, 2)
    rep = basis_discord(rho)  # the discord identity is asserted inside
    assert rep.basis_discord >= -1e-9
    assert rep.classical_correlations <= rep.mutual_information + 1e-9
    rep_a = fidelity_coherence_report(rho.marginal("A"))
    assert 0.0 <= rep_a["lower_bound"] <= rep_a["value"] <= 1.0


@EDGE
@given(d=dims, seed=seeds, split=st.integers(min_value=1, max_value=3))
def test_degenerate_spectra(d, seed, split):
    rng = stream(seed, 8)
    u = random_unitary(d, rng)
    split = min(split, d)
    # Two levels: split-fold and (d - split)-fold, or fully degenerate.
    lam = np.where(np.arange(d) < split, 2.0, 1.0)
    lam /= lam.sum()
    rho = u @ np.diag(lam) @ dagger(u)
    want = -float(np.sum(lam * np.log2(lam)))
    assert entropy(rho) == pytest.approx(want, abs=1e-12)
    assert rel_ent_coherence(rho, Basis(u)) == pytest.approx(0.0, abs=1e-10)
    mixed = np.eye(d) / d
    assert rel_ent_coherence(mixed) == pytest.approx(0.0, abs=1e-12)
    assert fidelity_coherence_report(mixed)["value"] == pytest.approx(0.0, abs=1e-12)
