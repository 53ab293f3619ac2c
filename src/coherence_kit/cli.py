"""Command-line interface: classify channels, compute measures, reproduce
the worked examples, and run seeded property suites.

Exit codes: 0 success, 1 a suite or reproduction failed, 2 bad input,
3 an internal invariant failed (``InvariantError``: a defect or a numerical
breakdown, never bad input; stderr names the invariant and stdout stays
empty).  Stdout carries JSON only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .channels import ChannelError, choi
from .coherence import classify_channel, coherence_measures
from .discord import (
    basis_discord,
    delta_creation_demo,
    j_increase_witness,
    petz_recover,
    recoverability,
    zero_discord_decompose,
    zero_discord_example,
)
from .linalg import STRUCTURE_TOL, InvalidStateError, InvariantError, eigvals_hermitian, trace_distance
from .serialize import (
    ParseError,
    basis_from_json,
    channel_from_json,
    load_json,
    round_floats,
    state_from_json,
)
from .suites import SUITES, run_suite

METRIC_ALIASES = {"trace": "trace", "fid": "one_minus_fidelity", "relent": "rel_ent"}


def _emit(payload, digits: int = 12) -> None:
    # Encode fully before writing, so a non-finite value leaves stdout empty.
    text = json.dumps(round_floats(payload, digits), indent=2, sort_keys=True, allow_nan=False)
    sys.stdout.write(text + "\n")


def _non_negative_int(text: str) -> int:
    """argparse type for a non-negative integer count."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _default_seed(value) -> int:
    if value is not None:
        return int(value)
    return int(os.environ.get("COHERENCE_KIT_SEED", "0"))


def cmd_classify(args) -> int:
    channel = channel_from_json(load_json(args.channel))
    basis = basis_from_json(load_json(args.basis)) if args.basis else None
    observable = np.array([float(x) for x in args.observable.split(",")]) if args.observable else None
    report = classify_channel(channel, basis, observable, tol=args.tol)
    _emit(report.to_dict())
    return 0


def cmd_measure(args) -> int:
    state = state_from_json(load_json(args.state))
    basis = basis_from_json(load_json(args.basis)) if args.basis else None
    if args.kind == "coherence":
        _emit(coherence_measures(state if isinstance(state, np.ndarray) else state.state, basis))
        return 0
    if isinstance(state, np.ndarray):
        raise ParseError(f"{args.kind} needs a bipartite state with dims")
    if args.kind == "discord":
        _emit(basis_discord(state, basis).to_dict())
        return 0
    res = recoverability(state, basis, metric=METRIC_ALIASES[args.metric], budget=args.budget)
    _emit({"value": res["value"], "petz_value": res["petz_value"], "metric": args.metric})
    return 0


def _reproduce_delta_creation() -> dict:
    demo = delta_creation_demo()
    ok = abs(demo["before"]) < 1e-9 and abs(demo["after"] - 0.1887) < 5e-4
    return {"before": demo["before"], "after": demo["after"], "expected_after": 0.1887, "pass": ok}


def _reproduce_zero_delta() -> dict:
    rho = zero_discord_example()
    report = basis_discord(rho)
    _, recovered = petz_recover(rho)
    dist = trace_distance(recovered.state, rho.state)
    decomp = zero_discord_decompose(rho)
    ok = abs(report.basis_discord) < 1e-9 and dist < 1e-8 and decomp.success
    return {
        "delta": report.basis_discord,
        "petz_distance": dist,
        "decomposition_blocks": len(decomp.blocks),
        "pass": ok,
    }


def _reproduce_dilation(seed: int) -> dict:
    from .coherence import dilation_construct, dilation_verify, random_si_channel

    worst = 0.0
    for t in range(20):
        e = random_si_channel(int(2 + t % 3), 1 + t % 4, seed=seed, index=t)
        worst = max(worst, dilation_verify(dilation_construct(e), e, n_states=5, seed=seed + t))
    return {"worst_deviation": worst, "pass": worst <= 1e-10}


def _reproduce_j_witness() -> dict:
    from .channels import KrausChannel

    k0 = np.array([[1, 1], [0, 0]], dtype=complex) / np.sqrt(2)
    k1 = np.array([[0, 0], [1, -1]], dtype=complex) / np.sqrt(2)
    _, phi, before, after = j_increase_witness(KrausChannel((k0, k1)))
    ok = before <= 1e-10 and after > 1e-4
    return {"phi": phi, "j_before": before, "j_after": after, "pass": ok}


def _reproduce_depolarizing_boundary() -> dict:
    from .universal import depolarizing_channel, p_range

    rows = []
    ok = True
    for d in (2, 3, 4):
        lo, _ = p_range(d)
        at = float(eigvals_hermitian(choi(depolarizing_channel(d, lo)))[0])
        below_p = lo - 1e-3
        # The constructor refuses below-range p, so form the Choi model
        # of the would-be channel directly.
        from .universal import bell_basis

        alpha = bell_basis(d)[0]
        model = below_p * np.outer(alpha, alpha.conj()) + (1 - below_p) / (d * d) * np.eye(d * d)
        below = float(eigvals_hermitian(model)[0])
        rows.append({"d": d, "min_eig_at_boundary": at, "min_eig_below": below})
        ok = ok and abs(at) < 1e-10 and below < -1e-5
    return {"cases": rows, "pass": ok}


REPRODUCTIONS = {
    "delta-creation": lambda seed: _reproduce_delta_creation(),
    "zero-delta": lambda seed: _reproduce_zero_delta(),
    "dilation-roundtrip": _reproduce_dilation,
    "j-witness": lambda seed: _reproduce_j_witness(),
    "depolarizing-boundary": lambda seed: _reproduce_depolarizing_boundary(),
}


def cmd_reproduce(args) -> int:
    result = REPRODUCTIONS[args.case](_default_seed(args.seed))
    _emit(result)
    return 0 if result["pass"] else 1


def cmd_suite(args) -> int:
    if args.name not in SUITES:
        print(f"unknown suite {args.name!r}; known: {', '.join(sorted(SUITES))}", file=sys.stderr)
        return 2
    report = run_suite(args.name, trials=args.trials, seed=_default_seed(args.seed))
    # Wall time is nondeterministic; keep the JSON reproducible per seed.
    stable = {k: v for k, v in report.items() if k != "wall_time"}
    _emit(stable)
    print(f"{args.name}: {report['trials']} trials in {report['wall_time']:.1f}s", file=sys.stderr)
    return 0 if not report["failures"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherence-kit",
        description="Incoherent-operation classification, coherence and discord measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a Kraus channel in the incoherent hierarchy")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--basis", help="basis JSON file (default computational)")
    p.add_argument("--observable", help="comma-separated eigenvalues for the covariance check")
    p.add_argument("--tol", type=float, default=STRUCTURE_TOL)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("measure", help="coherence, discord or recoverability of a state")
    p.add_argument("kind", choices=["coherence", "discord", "recoverability"])
    p.add_argument("state", help="state JSON file")
    p.add_argument("--basis", help="basis JSON file")
    p.add_argument("--metric", choices=sorted(METRIC_ALIASES), default="trace")
    p.add_argument("--budget", type=_non_negative_int, default=1)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("reproduce", help="re-run a pinned worked example")
    p.add_argument("case", choices=sorted(REPRODUCTIONS))
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("suite", help="run a seeded property suite")
    p.add_argument("name")
    p.add_argument("--trials", type=_non_negative_int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvariantError as err:
        print(f"invariant violated: {err}", file=sys.stderr)
        return 3
    except (ParseError, ChannelError, InvalidStateError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
