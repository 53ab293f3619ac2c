"""Seeded property suites checking the package's inequalities end to end.

Every suite is a pure function of (trials, seed); each trial derives its
own random stream, so runs are reproducible and order-independent.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from .channels import BipartiteState, KrausChannel, apply, local_apply
from .coherence import (
    classify_channel,
    dephase,
    dephasing_commutant_deviation,
    dilation_construct,
    dilation_verify,
    random_gi_channel,
    random_incoherent_not_si_channel,
    random_si_channel,
)
from .discord import (
    basis_discord,
    ensemble_monotonicity_trial,
    j_increase_witness,
    memory_monotonicity_trial,
    random_zero_discord_state,
)
from .linalg import METRICS, distance, trace_distance
from .sampling import random_density_matrix, random_unitary, stream
from .universal import channel_zoo, every_basis_falsifier, is_depolarizing


def _hash_inputs(*parts) -> str:
    h = hashlib.sha1()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:12]


def _cprime(rho: np.ndarray, metric: str) -> float:
    return distance(metric, rho, dephase(rho))


def suite_cprime_monotone(trials: int, seed: int):
    """Dephased-distance coherence never grows under SI channels, all metrics."""
    for t in range(trials):
        rng = stream(seed, 101, t)
        d = int(rng.integers(2, 5))
        rho = random_density_matrix(d, rng)
        e = random_si_channel(d, int(rng.integers(1, 4)), seed=seed, index=t)
        out = apply(e, rho)
        worst = -np.inf
        for metric in METRICS:
            worst = max(worst, _cprime(out, metric) - _cprime(rho, metric))
        yield {
            "trial": t,
            "inputs": _hash_inputs(seed, t, d),
            "lhs": float(worst),
            "rhs": 0.0,
            "pass": worst <= 1e-9,
        }


def _ensemble_suite(kind: str, trials: int, seed: int):
    for t in range(trials):
        rng = stream(seed, 103, t)
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        rho = BipartiteState(random_density_matrix(da * db, rng), da, db)
        e = random_si_channel(da, int(rng.integers(1, 4)), seed=seed, index=t)
        res = ensemble_monotonicity_trial(kind, rho, e)
        yield {
            "trial": t,
            "inputs": _hash_inputs(seed, t, da, db),
            "lhs": res["lhs"],
            "rhs": res["rhs"],
            "pass": res["pass"],
        }


def suite_j_ensemble(trials: int, seed: int):
    """J(B|A) is an ensemble monotone under SI channels on A."""
    return _ensemble_suite("J", trials, seed)


def suite_delta_ensemble(trials: int, seed: int):
    """delta(B|A) is an ensemble monotone under SI channels on A."""
    return _ensemble_suite("delta", trials, seed)


def suite_gi_deterministic(trials: int, seed: int):
    """delta(B|A) never grows under the unselected action of GI channels."""
    for t in range(trials):
        rng = stream(seed, 107, t)
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        rho = BipartiteState(random_density_matrix(da * db, rng), da, db)
        g = random_gi_channel(da, int(rng.integers(1, 4)), seed=seed, index=t)
        before = basis_discord(rho).basis_discord
        after = basis_discord(local_apply(g, rho, "A")).basis_discord
        yield {
            "trial": t,
            "inputs": _hash_inputs(seed, t, da, db),
            "lhs": after,
            "rhs": before,
            "pass": after <= before + 1e-8,
        }


def suite_recover_memory(trials: int, seed: int):
    """Recoverability cannot get worse when an SI channel keeps its outcome."""
    for t in range(trials):
        rng = stream(seed, 109, t)
        rho = BipartiteState(random_density_matrix(4, rng), 2, 2)
        e = random_si_channel(2, int(rng.integers(1, 4)), seed=seed, index=t)
        res = memory_monotonicity_trial(rho, e, budget=1, seed=seed + t)
        yield {
            "trial": t,
            "inputs": _hash_inputs(seed, t),
            "lhs": res["after"],
            "rhs": res["before"],
            "pass": res["pass"],
        }


def suite_contractivity(trials: int, seed: int):
    """Every metric contracts under random channels (unitary + SI mixes)."""
    for t in range(trials):
        rng = stream(seed, 113, t)
        d = int(rng.integers(2, 5))
        rho = random_density_matrix(d, rng)
        sig = random_density_matrix(d, rng)
        if t % 2 == 0:
            e = KrausChannel((random_unitary(d, rng),))
        else:
            e = random_si_channel(d, 2, seed=seed, index=t)
        worst = -np.inf
        for metric in METRICS:
            before = distance(metric, rho, sig)
            after = distance(metric, apply(e, rho), apply(e, sig))
            worst = max(worst, after - before)
        yield {
            "trial": t,
            "inputs": _hash_inputs(seed, t, d),
            "lhs": float(worst),
            "rhs": 0.0,
            "pass": worst <= 1e-9,
        }


def suite_dilation_roundtrip(trials: int, seed: int):
    """Ancilla dilation reproduces every selected SI outcome."""
    for t in range(trials):
        rng = stream(seed, 127, t)
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        e = random_si_channel(d, n, seed=seed, index=t)
        spec = dilation_construct(e)
        worst = dilation_verify(spec, e, n_states=5, seed=seed + t)
        yield {
            "trial": t,
            "inputs": _hash_inputs(seed, t, d, n),
            "lhs": worst,
            "rhs": 0.0,
            "pass": worst <= 1e-10,
        }


def suite_si_commutes(trials: int, seed: int):
    """SI channels commute with dephasing; planted non-SI ones do not."""
    for t in range(trials):
        rng = stream(seed, 131, t)
        d = int(rng.integers(2, 5))
        if t % 2 == 0:
            e = random_si_channel(d, int(rng.integers(1, 4)), seed=seed, index=t)
            dev = dephasing_commutant_deviation(e)
            ok = dev <= 1e-9
        else:
            e = random_incoherent_not_si_channel(d, seed=seed, index=t)
            dev = dephasing_commutant_deviation(e)
            ok = dev > 1e-4
        yield {
            "trial": t,
            "inputs": _hash_inputs(seed, t, d),
            "lhs": dev,
            "rhs": 0.0,
            "pass": ok,
        }


def suite_hierarchy(trials: int, seed: int):
    """Classification flags nest: GI implies SI implies incoherent."""
    for t in range(trials):
        rng = stream(seed, 137, t)
        d = int(rng.integers(2, 5))
        pick = t % 3
        if pick == 0:
            e = random_gi_channel(d, 2, seed=seed, index=t)
            want = (True, True, True)
        elif pick == 1:
            e = random_si_channel(d, 2, seed=seed, index=t)
            want = (True, True, None)
        else:
            e = random_incoherent_not_si_channel(d, seed=seed, index=t)
            want = (True, False, False)
        rep = classify_channel(e)
        got = (rep.incoherent, rep.strictly_incoherent, rep.genuinely_incoherent)
        ok = got[0] == want[0] and got[1] == want[1] and (want[2] is None or got[2] == want[2])
        yield {
            "trial": t,
            "inputs": _hash_inputs(seed, t, d, pick),
            "lhs": float(sum(got)),
            "rhs": float(sum(w for w in want if w)),
            "pass": ok,
        }


def suite_j_witness(trials: int, seed: int):
    """Every incoherent-not-SI channel admits a state raising J(B|A)."""
    for t in range(trials):
        rng = stream(seed, 139, t)
        d = int(rng.integers(2, 5))
        e = random_incoherent_not_si_channel(d, seed=seed, index=t)
        _, _, j_before, j_after = j_increase_witness(e)
        ok = j_before <= 1e-10 and j_after > 1e-4
        yield {
            "trial": t,
            "inputs": _hash_inputs(seed, t, d),
            "lhs": j_before,
            "rhs": j_after,
            "pass": ok,
        }


def suite_depolarizing_zoo(trials: int, seed: int):
    """Randomized every-basis falsification agrees with the exact Choi test.

    The trial count bounds how many zoo channels are checked; the basis
    sample size per channel is fixed at 200.
    """
    zoo = list(channel_zoo(seed).items())
    for t, (name, e) in enumerate(zoo[: trials if trials > 0 else len(zoo)]):
        p = is_depolarizing(e)
        violating = every_basis_falsifier(e, n_bases=200, seed=seed)
        agree = (p is not None) == (violating is None)
        yield {
            "trial": t,
            "inputs": name,
            "lhs": float(p is not None),
            "rhs": float(violating is None),
            "pass": agree,
        }


def suite_result2_equivalence(trials: int, seed: int):
    """Zero discord, exact Petz recovery and block decomposition coincide."""
    from .discord import petz_recover, zero_discord_decompose

    n_planted = max(1, trials // 5)
    for t in range(trials):
        rng = stream(seed, 149, t)
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        if t < n_planted:
            rho = random_zero_discord_state(da, db, seed=seed, index=t)
        else:
            rho = BipartiteState(random_density_matrix(da * db, rng), da, db)
        delta = basis_discord(rho).basis_discord
        _, recovered = petz_recover(rho)
        petz_dist = trace_distance(recovered.state, rho.state)
        decomp = zero_discord_decompose(rho)
        flags = (delta < 1e-8, petz_dist < 1e-7, decomp.success)
        yield {
            "trial": t,
            "inputs": _hash_inputs(seed, t, da, db),
            "lhs": float(sum(flags)),
            "rhs": 3.0 if flags[0] else 0.0,
            "pass": len(set(flags)) == 1,
        }


SUITES = {
    "cprime-monotone": (suite_cprime_monotone, 1000),
    "j-ensemble": (suite_j_ensemble, 1000),
    "delta-ensemble": (suite_delta_ensemble, 1000),
    "gi-deterministic": (suite_gi_deterministic, 500),
    "recover-memory": (suite_recover_memory, 200),
    "contractivity": (suite_contractivity, 300),
    "dilation-roundtrip": (suite_dilation_roundtrip, 200),
    "si-commutes": (suite_si_commutes, 200),
    "hierarchy": (suite_hierarchy, 300),
    "j-witness": (suite_j_witness, 50),
    "depolarizing-zoo": (suite_depolarizing_zoo, 0),
    "result2-equivalence": (suite_result2_equivalence, 500),
}


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> dict:
    """Execute one registered suite and aggregate failures by trial index."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    fn, default_trials = SUITES[name]
    n = default_trials if trials is None else trials
    if n < 0:
        raise ValueError(f"trials must be non-negative, got {n}")
    start = time.time()
    failures = []
    count = 0
    for res in fn(n, seed):
        count += 1
        if not res["pass"]:
            failures.append(
                {
                    "trial": res["trial"],
                    "inputs": res["inputs"],
                    "lhs": res["lhs"],
                    "rhs": res["rhs"],
                }
            )
    return {
        "suite": name,
        "seed": seed,
        "trials": count,
        "failures": failures,
        "wall_time": time.time() - start,
    }
