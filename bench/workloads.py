"""The benchmark's three workloads: ops, their inputs and their checks.

An op is one timed call into coherence_kit's public functions (input
sampling included) plus an untimed check of its output against
``reference`` or against a property the method must have.  A block is a
fixed list of ops; every block of a workload has the same make-up and
draws fresh inputs from (seed, phase, block, slot), so no result can be
reused across blocks.

Library functions are always looked up through the package at call time
(``ck.discord.basis_discord``, never a name bound at import), so the traced
run sees every call after it rebinds those names.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from checks import Checker

MEASURE, WARMUP = 0, 1


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[Checker, object], None]
    # A known program fault: a failed check counts the op as failed, not wrong.
    fault: bool = False


class Draw:
    """Seeded inputs of one block: a numpy stream per slot, and the
    (seed, index) pair that coherence_kit's own samplers take."""

    def __init__(self, seed: int, phase: int, block: int):
        self.seed = 2 * seed + phase
        self.block = block
        self._key = (seed, phase, block)

    def rng(self, slot: int) -> np.random.Generator:
        return np.random.default_rng((*self._key, slot))

    def index(self, slot: int) -> int:
        return 1000 * self.block + slot


def _write_json(path: str, payload) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _channel_json(kraus) -> dict:
    d_out, d_in = np.asarray(kraus[0]).shape
    return {"dim_in": d_in, "dim_out": d_out, "kraus": [_matrix_json(k) for k in kraus]}


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def run_cli(ck, argv: list[str]) -> tuple[int, str]:
    """cli.main in-process; returns the exit code and the captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ck.cli.main(argv)
    return code, out.getvalue()


def parse_strict(c: Checker, stdout: str):
    try:
        payload = json.loads(stdout, parse_constant=_reject_constant)
        ok = True
    except ValueError:
        payload, ok = None, False
    c.true("CLI stdout is strict JSON", ok)
    return payload


def check_discord_values(c: Checker, got: dict, mat: np.ndarray, da: int, db: int) -> None:
    """I and J against the reference, then 0 <= delta <= I and J <= I."""
    i_ref = ref.mutual_information(mat, da, db)
    j_ref = ref.classical_correlations(mat, da, db)
    c.close("I(A:B)", got["I"], i_ref, 1e-9)
    c.close("J(B|A)", got["J"], j_ref, 1e-9)
    c.ge("delta >= 0", got["delta"], 0.0, 1e-12)
    c.le("delta <= I", got["delta"], got["I"], 1e-12)
    c.le("J <= I", got["J"], got["I"], 1e-12)


def _report_values(report) -> dict:
    return {"I": report.mutual_information, "J": report.classical_correlations, "delta": report.basis_discord}


def _random_bipartite(ck, rng, da: int, db: int):
    return ck.BipartiteState(ck.sampling.random_density_matrix(da * db, rng), da, db)


# --------------------------------------------------------------------------
# bipartite-monotones
# --------------------------------------------------------------------------

SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
N_KRAUS = 2


def _measure(kind: str, mat, da: int, db: int) -> float:
    j = ref.classical_correlations(mat, da, db)
    return j if kind == "J" else ref.mutual_information(mat, da, db) - j


def _ensemble_op(ck, draw: Draw, slot: int, kind: str, da: int, db: int) -> Op:
    def run():
        rho = _random_bipartite(ck, draw.rng(slot), da, db)
        e = ck.random_si_channel(da, N_KRAUS, seed=draw.seed, index=draw.index(slot))
        return rho, e, ck.ensemble_monotonicity_trial(kind, rho, e)

    def check(c, out):
        rho, e, res = out
        lhs = 0.0
        for k in e.kraus:
            branch = ref.local_apply_a([k], rho.state, da, db)
            p = float(np.real(np.trace(branch)))
            if p > 1e-12:
                lhs += p * _measure(kind, branch / p, da, db)
        c.close(f"{kind} before", res["rhs"], _measure(kind, rho.state, da, db), 1e-9)
        c.close(f"outcome-averaged {kind}", res["lhs"], lhs, 1e-9)
        c.le(f"{kind} ensemble monotone", res["lhs"], res["rhs"], 1e-8)

    return Op(f"ensemble-{kind}-{da}x{db}", run, check)


def _gi_op(ck, draw: Draw, slot: int, da: int, db: int) -> Op:
    def run():
        rho = _random_bipartite(ck, draw.rng(slot), da, db)
        g = ck.random_gi_channel(da, N_KRAUS, seed=draw.seed, index=draw.index(slot))
        before = ck.basis_discord(rho)
        after = ck.basis_discord(ck.local_apply(g, rho, "A"))
        return rho, g, before, after

    def check(c, out):
        rho, g, before, after = out
        check_discord_values(c, _report_values(before), rho.state, da, db)
        moved = ref.local_apply_a(g.kraus, rho.state, da, db)
        check_discord_values(c, _report_values(after), moved, da, db)
        c.le("GI deterministic monotone", after.basis_discord, before.basis_discord, 1e-8)

    return Op(f"gi-deterministic-{da}x{db}", run, check)


def _result2_op(ck, draw: Draw, slot: int, da: int, db: int, planted: bool) -> Op:
    def run():
        if planted:
            rho = ck.discord.random_zero_discord_state(da, db, seed=draw.seed, index=draw.index(slot))
        else:
            rho = _random_bipartite(ck, draw.rng(slot), da, db)
        report = ck.basis_discord(rho)
        _, recovered = ck.petz_recover(rho)
        return rho, report, recovered, ck.zero_discord_decompose(rho)

    def check(c, out):
        rho, report, recovered, decomp = out
        mat = rho.state
        check_discord_values(c, _report_values(report), mat, da, db)
        petz_gap = float(np.max(np.abs(recovered.state - ref.petz_recovered(mat, da, db))))
        c.le("Petz state matches reference", petz_gap, 0.0, 1e-8)
        zero = report.basis_discord < 1e-8
        exact = ref.trace_distance(recovered.state, mat) < 1e-7
        c.equal("Petz exact iff zero discord", exact, zero)
        c.equal("decomposes iff zero discord", decomp.success, zero)
        if planted:
            c.lt("planted delta", report.basis_discord, 1e-8)
            rebuilt = sum(p * np.kron(a, b) for p, a, b, _ in decomp.blocks)
            c.le("decomposition rebuilds the state", ref.trace_distance(rebuilt, mat), 0.0, 1e-7)

    return Op(f"result2-{'planted' if planted else 'random'}-{da}x{db}", run, check)


def _delta_creation_op(ck) -> Op:
    def run():
        return ck.delta_creation_demo()

    def check(c, demo):
        after = demo["state"]
        c.close("delta before", demo["before"], 0.0, 1e-9)
        c.close("delta created", demo["after"], 0.1887, 5e-4)
        c.close("delta created, recomputed", demo["after"], _measure("delta", after.state, 3, 2), 1e-9)

    return Op("delta-creation", run, check)


def _bell_op(ck, draw: Draw, slot: int) -> Op:
    def run():
        phase = draw.rng(slot).uniform(0.0, 2.0 * np.pi)
        vec = np.zeros(4, dtype=complex)
        vec[0], vec[3] = 1.0, np.exp(1j * phase)
        vec /= np.sqrt(2.0)
        return ck.basis_discord(ck.BipartiteState(np.outer(vec, vec.conj()), 2, 2))

    def check(c, report):
        c.close("Bell I", report.mutual_information, 2.0, 1e-9)
        c.close("Bell J", report.classical_correlations, 1.0, 1e-9)
        c.close("Bell delta", report.basis_discord, 1.0, 1e-9)

    return Op("bell", run, check)


class BipartiteMonotones:
    name = "bipartite-monotones"
    block_seconds = 0.5

    def __init__(self, ck, seed: int, workdir: str):
        self.ck, self.seed = ck, seed

    def block(self, b: int, phase: int = MEASURE, shapes=SHAPES) -> list[Op]:
        ck, draw = self.ck, Draw(self.seed, phase, b)
        ops, slot = [], 0
        for da, db in shapes:
            for kind in ("J", "delta"):
                ops.append(_ensemble_op(ck, draw, slot, kind, da, db))
                slot += 1
            ops.append(_gi_op(ck, draw, slot, da, db))
            ops.append(_result2_op(ck, draw, slot + 1, da, db, planted=False))
            ops.append(_result2_op(ck, draw, slot + 2, da, db, planted=True))
            slot += 3
        ops.append(_delta_creation_op(ck))
        ops.append(_bell_op(ck, draw, slot))
        return ops

    def warmup(self) -> list[Op]:
        return self.block(0, WARMUP, shapes=SHAPES[:1])


# --------------------------------------------------------------------------
# recovery-optimizers
# --------------------------------------------------------------------------

METRICS = ("trace", "one_minus_fidelity", "rel_ent")
# Nelder-Mead iteration cap per recoverability call; the default (2000)
# makes one call take seconds, which leaves too few blocks in a run.
RECOVER_MAXITER = 100
# One simplex start per C_f call (the dephased diagonal); the default 20
# restarts make one call take seconds.
CF_RESTARTS = 1
CF_MIX = ((2, True), (2, False), (3, True)) + ((3, False),) * 5


def _recover_op(ck, draw: Draw, slot: int, metric: str, planted: bool, maxiter: int) -> Op:
    def run():
        if planted:
            rho = ck.discord.random_zero_discord_state(2, 2, seed=draw.seed, index=draw.index(slot))
        else:
            rho = _random_bipartite(ck, draw.rng(slot), 2, 2)
        return rho, ck.recoverability(rho, metric=metric, budget=1, seed=draw.seed, maxiter=maxiter)

    def check(c, out):
        rho, res = out
        mat = rho.state
        petz = ref.distance(metric, mat, ref.petz_recovered(mat, 2, 2))
        c.close("Petz value", res["petz_value"], petz, 1e-8)
        c.ge("recoverability >= 0", res["value"], 0.0)
        c.le("recoverability <= Petz value", res["value"], res["petz_value"])
        if planted:
            c.le("zero discord recovers exactly", res["value"], 0.0, 1e-7)

    kind = "planted" if planted else "random"
    return Op(f"recoverability-{metric}-{kind}", run, check)


def _memory_op(ck, draw: Draw, slot: int, budget: int) -> Op:
    def run():
        rho = _random_bipartite(ck, draw.rng(slot), 2, 2)
        e = ck.random_si_channel(2, N_KRAUS, seed=draw.seed, index=draw.index(slot))
        return rho, ck.memory_monotonicity_trial(rho, e, budget=budget, seed=draw.seed)

    def check(c, out):
        rho, res = out
        petz = ref.trace_distance(rho.state, ref.petz_recovered(rho.state, 2, 2))
        c.le("before <= Petz value", res["before"], petz, 1e-9)
        c.ge("after >= 0", res["after"], 0.0)
        c.le("memory monotone", res["after"], res["before"], 1e-4)

    return Op("memory-monotonicity", run, check)


def _cf_op(ck, draw: Draw, slot: int, d: int, pure: bool, restarts: int) -> Op:
    def run():
        rng = draw.rng(slot)
        if pure:
            psi = ck.sampling.random_pure_state(d, rng)
            rho = np.outer(psi, psi.conj())
        else:
            rho = ck.sampling.random_density_matrix(d, rng)
        return rho, ck.fidelity_coherence(rho, restarts=restarts, seed=draw.seed)

    def check(c, out):
        rho, value = out
        if pure:
            psi_max = math.sqrt(float(np.max(np.real(np.diag(rho)))))
            c.close("C_f of a pure state", value, 1.0 - psi_max, 1e-6)
        else:
            c.ge("C_f >= 0", value, 0.0)
            c.le("C_f <= 1 - F(rho, Phi(rho))", value, 1.0 - ref.fidelity(rho, ref.dephase(rho)), 1e-9)

    return Op(f"fidelity-coherence-{'pure' if pure else 'mixed'}-d{d}", run, check)


class RecoveryOptimizers:
    name = "recovery-optimizers"
    block_seconds = 4.5

    def __init__(self, ck, seed: int, workdir: str):
        self.ck, self.seed = ck, seed

    def block(self, b: int, phase: int = MEASURE) -> list[Op]:
        ck, draw = self.ck, Draw(self.seed, phase, b)
        ops = [_recover_op(ck, draw, slot, m, False, RECOVER_MAXITER) for slot, m in enumerate(METRICS)]
        ops.append(_recover_op(ck, draw, 3, "trace", True, RECOVER_MAXITER))
        ops.append(_memory_op(ck, draw, 4, budget=1))
        # The C_f mix puts the median op of a block (7th of 13) in the middle
        # of the five mixed d=3 calls rather than between two op kinds of
        # different length, which keeps op_p50_ms steady.
        for slot, (d, pure) in enumerate(CF_MIX, start=5):
            ops.append(_cf_op(ck, draw, slot, d, pure, CF_RESTARTS))
        return ops

    def warmup(self) -> list[Op]:
        """Every op kind once, with the optimizers cut short."""
        ck, draw = self.ck, Draw(self.seed, WARMUP, 0)
        ops = [_recover_op(ck, draw, slot, m, False, 5) for slot, m in enumerate(METRICS)]
        ops.append(_memory_op(ck, draw, 3, budget=0))
        ops.append(_cf_op(ck, draw, 4, 2, True, 1))
        return ops


# --------------------------------------------------------------------------
# channel-hierarchy
# --------------------------------------------------------------------------

DIMS = (2, 3, 4)
FALSIFIER_BASES = 5
# The README example: incoherent, but not SI (a row holds two entries).
README_KRAUS = (
    np.array([[1, 1], [0, 0]], dtype=complex) / np.sqrt(2),
    np.array([[0, 0], [1, -1]], dtype=complex) / np.sqrt(2),
)
# A valid state and the identity channel, each with one NaN entry.
NAN_STATE = {"dims": [2, 2], "matrix": _matrix_json(np.diag([0.5, 0.5, 0.0, 0.0]))}
NAN_STATE["matrix"][0][1] = [math.nan, 0.0]
NAN_CHANNEL = _channel_json((np.eye(2),))
NAN_CHANNEL["kraus"][0][1][0] = [math.nan, 0.0]


def _generator(ck, kind: str):
    if kind == "si":
        return lambda d, seed, index: ck.random_si_channel(d, N_KRAUS, seed=seed, index=index)
    if kind == "gi":
        return lambda d, seed, index: ck.random_gi_channel(d, N_KRAUS, seed=seed, index=index)
    return lambda d, seed, index: ck.random_incoherent_not_si_channel(d, seed=seed, index=index)


# Flags (incoherent, SI, GI) each generator must produce; None is unconstrained
# (a random SI channel is GI when every drawn permutation is the identity).
EXPECTED_FLAGS = {
    "si": (True, True, None),
    "gi": (True, True, True),
    "incoherent-not-si": (True, False, False),
}


def check_classification(c: Checker, flags: dict, kraus, want) -> None:
    got = (flags["incoherent"], flags["strictly_incoherent"], flags["genuinely_incoherent"])
    for label, g, w in zip(("incoherent", "SI", "GI"), got, want):
        if w is not None:
            c.equal(f"{label} flag", g, w)
    dev = ref.dephasing_deviation(kraus, np.asarray(kraus[0]).shape[0])
    c.close("dephasing deviation", flags["dephasing_deviation"], dev, 1e-12)
    c.equal("SI iff commutes with dephasing", flags["strictly_incoherent"], dev <= 1e-8)
    c.equal("commutes flag", flags["commutes_with_dephasing"], dev <= 1e-8)


def _classify_op(ck, draw: Draw, slot: int, kind: str, d: int) -> Op:
    make = _generator(ck, kind)

    def run():
        e = make(d, draw.seed, draw.index(slot))
        return e, ck.classify_channel(e)

    def check(c, out):
        e, report = out
        check_classification(c, report.to_dict(), e.kraus, EXPECTED_FLAGS[kind])

    return Op(f"classify-{kind}-d{d}", run, check)


def _dilation_op(ck, draw: Draw, slot: int, d: int) -> Op:
    def run():
        e = ck.random_si_channel(d, N_KRAUS, seed=draw.seed, index=draw.index(slot))
        return ck.dilation_verify(ck.dilation_construct(e), e, seed=draw.seed)

    def check(c, deviation):
        c.le("dilation deviation", deviation, 0.0, 1e-10)

    return Op(f"dilation-d{d}", run, check)


def _witness_op(ck, draw: Draw, slot: int, d: int) -> Op:
    def run():
        e = ck.random_incoherent_not_si_channel(d, seed=draw.seed, index=draw.index(slot))
        return e, ck.j_increase_witness(e)

    def check(c, out):
        e, (state, _, j_before, j_after) = out
        moved = ref.local_apply_a(e.kraus, state.state, d, 2)
        c.close("J before, recomputed", j_before, ref.classical_correlations(state.state, d, 2), 1e-9)
        c.close("J after, recomputed", j_after, ref.classical_correlations(moved, d, 2), 1e-9)
        c.le("J before is zero", j_before, 0.0, 1e-10)
        c.gt("J after is positive", j_after, 1e-4)

    return Op(f"j-witness-d{d}", run, check)


def _cli_classify_op(ck, name: str, path: str, kraus, want) -> Op:
    def run():
        return run_cli(ck, ["classify", path])

    def check(c, out):
        code, stdout = out
        c.equal("exit code", code, 0)
        flags = parse_strict(c, stdout)
        check_classification(c, flags, kraus, want)

    return Op(name, run, check)


def _cli_discord_op(ck, path: str, mat) -> Op:
    def run():
        return run_cli(ck, ["measure", "discord", path])

    def check(c, out):
        code, stdout = out
        c.equal("exit code", code, 0)
        check_discord_values(c, parse_strict(c, stdout), mat, 2, 2)

    return Op("cli-measure-discord", run, check)


def _nan_op(ck, name: str, argv: list[str]) -> Op:
    """Known fault: non-finite input passes validation and exits 0, not 2."""

    def run():
        return run_cli(ck, argv)

    def check(c, out):
        c.equal("non-finite input exits 2", out[0], 2)

    return Op(name, run, check, fault=True)


def zoo_expectations() -> dict[str, float]:
    """Constructed depolarizing parameter of every zoo channel that is one."""
    want = {}
    for d in DIMS:
        lo = -1.0 / (d * d - 1)
        for p in (1.0, 0.7, 0.3, 0.0, lo / 2, lo):
            want[f"depolarizing-d{d}-p{p:.4f}"] = p
    for d in (2, 3):
        want[f"identity-d{d}"] = 1.0
    return want


def zoo_isotropy() -> dict[str, float]:
    """Mixing parameter of the zoo channels built as rho -> p U rho U^dag + (1-p) I/d."""
    want = dict(zoo_expectations())
    for d in (2, 3):
        for i in range(4):
            want[f"unitary-d{d}-{i}"] = 1.0
        want[f"isotropic-random-d{d}"] = 0.55
    want["hadamard"] = 1.0
    want["isotropic-hadamard-p0.7"] = 0.7
    want["bit-flip"] = 1.0
    return want


class ChannelHierarchy:
    name = "channel-hierarchy"
    block_seconds = 0.5

    def __init__(self, ck, seed: int, workdir: str):
        self.ck, self.seed, self.workdir = ck, seed, workdir
        os.makedirs(workdir, exist_ok=True)
        self.readme = _write_json(os.path.join(workdir, "readme-example.json"), _channel_json(README_KRAUS))
        self.nan_state = _write_json(os.path.join(workdir, "nan-state.json"), NAN_STATE)
        self.nan_channel = _write_json(os.path.join(workdir, "nan-channel.json"), NAN_CHANNEL)
        self.depolarizing = zoo_expectations()
        self.isotropic = zoo_isotropy()
        self.boundary = {f"depolarizing-d{d}-p{-1.0 / (d * d - 1):.4f}" for d in DIMS}
        zoo = ck.channel_zoo(seed)
        self.zoo_names = list(zoo)
        self.zoo_dims = {name: ch.dim_in for name, ch in zoo.items()}

    def _zoo_op(self, zoo: dict, name: str, draw: Draw) -> Op:
        ck = self.ck

        def run():
            ch = zoo["channels"][name]
            p = ck.is_depolarizing(ch)
            falsifier = ck.every_basis_falsifier(ch, n_bases=FALSIFIER_BASES, seed=draw.seed)
            iso = ck.isotropic_decompose(ch)
            choi = ck.choi(ch) if name in self.boundary else None
            return p, falsifier, iso, choi

        def check(c, out):
            p, falsifier, iso, choi = out
            if name in self.depolarizing:
                c.true("depolarizing detected", p is not None)
                c.close("depolarizing p", p, self.depolarizing[name], 1e-9)
            else:
                c.true("not depolarizing", p is None)
            c.equal("falsifier agrees with is_depolarizing", falsifier is None, p is not None)
            if name in self.isotropic:
                c.true("isotropic decomposition found", iso is not None)
                c.close("isotropic p", iso[1], self.isotropic[name], 1e-9)
            if choi is not None:
                c.close("CP boundary: smallest Choi eigenvalue", float(np.linalg.eigvalsh(choi)[0]), 0.0, 1e-10)

        return Op(f"zoo-{name}", run, check)

    def block(self, b: int, phase: int = MEASURE, dims=DIMS) -> list[Op]:
        ck, draw = self.ck, Draw(self.seed, phase, b)
        ops, slot = [], 0
        for d in dims:
            for kind in EXPECTED_FLAGS:
                ops.append(_classify_op(ck, draw, slot, kind, d))
                slot += 1
            ops.append(_dilation_op(ck, draw, slot, d))
            ops.append(_witness_op(ck, draw, slot + 1, d))
            slot += 2

        ops.append(_cli_classify_op(ck, "cli-classify-readme", self.readme, README_KRAUS, (True, False, False)))
        for kind in ("si", "incoherent-not-si"):
            kraus = _generator(ck, kind)(3, draw.seed, draw.index(slot)).kraus
            path = _write_json(os.path.join(self.workdir, f"{kind}.json"), _channel_json(kraus))
            ops.append(_cli_classify_op(ck, f"cli-classify-{kind}", path, kraus, EXPECTED_FLAGS[kind]))
            slot += 1
        mat = ref_random_state(draw.rng(slot), 4)
        path = _write_json(os.path.join(self.workdir, "state.json"), {"dims": [2, 2], "matrix": _matrix_json(mat)})
        ops.append(_cli_discord_op(ck, path, mat))
        slot += 1

        zoo: dict = {}

        def build_zoo():
            zoo["channels"] = ck.channel_zoo(seed=draw.seed)
            return zoo["channels"]

        def check_zoo(c, channels):
            c.equal("zoo names", list(channels), self.zoo_names)

        ops.append(Op("zoo-build", build_zoo, check_zoo))
        ops.extend(self._zoo_op(zoo, name, draw) for name in self.zoo_names if self.zoo_dims[name] in dims)

        ops.append(_nan_op(ck, "cli-measure-discord-nan", ["measure", "discord", self.nan_state]))
        ops.append(_nan_op(ck, "cli-classify-nan", ["classify", self.nan_channel]))
        return ops

    def warmup(self) -> list[Op]:
        return self.block(0, WARMUP, dims=DIMS[:1])


def ref_random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank density matrix G G^dag / tr, drawn without the library."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


WORKLOADS = {w.name: w for w in (BipartiteMonotones, RecoveryOptimizers, ChannelHierarchy)}
