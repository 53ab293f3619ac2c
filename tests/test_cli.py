import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coherence_kit.channels import KrausChannel, identity_channel
from coherence_kit.coherence import Basis
from coherence_kit.discord import delta_creation_demo, zero_discord_example
from coherence_kit.serialize import (
    ParseError,
    basis_from_json,
    basis_to_json,
    channel_from_json,
    channel_to_json,
    matrix_from_json,
    matrix_to_json,
    state_from_json,
    state_to_json,
)
from coherence_kit.sampling import random_unitary, stream

NON_SI = KrausChannel(
    (
        np.array([[1, 1], [0, 0]], dtype=complex) / np.sqrt(2),
        np.array([[0, 0], [1, -1]], dtype=complex) / np.sqrt(2),
    )
)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env(extra=None):
    """The environment of a child interpreter, with this checkout's ``src``
    first on PYTHONPATH: pytest's ``pythonpath`` setting reaches only its
    own process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(extra or {})
    return env


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "coherence_kit.cli", *args],
        capture_output=True,
        text=True,
        env=child_env(env),
    )


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_matrix_round_trip():
    rng = stream(179, 0)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(matrix_from_json(matrix_to_json(m)), m, atol=1e-15)


def test_channel_and_state_round_trip():
    ch = channel_from_json(channel_to_json(NON_SI))
    assert ch.dim_in == 2 and len(ch) == 2
    rho = state_from_json(state_to_json(zero_discord_example()))
    assert rho.dims == (3, 2)
    b = basis_from_json(basis_to_json(Basis(random_unitary(3, stream(179, 1)))))
    assert b.dim == 3


def test_parse_errors():
    with pytest.raises(ParseError):
        matrix_from_json([[1, 2], [3, 4]])
    with pytest.raises(ParseError):
        channel_from_json({"kraus": "nope"})
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ParseError, match="non-finite"):
            matrix_from_json([[[1.0, 0.0], [bad, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])


def test_cli_classify_non_si(tmp_path):
    path = write_json(tmp_path, "ch.json", channel_to_json(NON_SI))
    res = run_cli("classify", path)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["incoherent"] is True
    assert report["strictly_incoherent"] is False


def test_cli_classify_gi_channel(tmp_path):
    ch = KrausChannel((np.diag([1.0, 0.6]).astype(complex), np.diag([0.0, 0.8]).astype(complex)))
    path = write_json(tmp_path, "gi.json", channel_to_json(ch))
    report = json.loads(run_cli("classify", path).stdout)
    assert report["genuinely_incoherent"] is True


def test_cli_classify_depolarizing(tmp_path):
    from coherence_kit.universal import depolarizing_channel

    path = write_json(tmp_path, "dep.json", channel_to_json(depolarizing_channel(2, 0.5)))
    report = json.loads(run_cli("classify", path).stdout)
    assert report["strictly_incoherent"] is True
    assert report["genuinely_incoherent"] is False


def test_cli_measure_coherence(tmp_path):
    plus = np.full((2, 2), 0.5, dtype=complex)
    path = write_json(tmp_path, "plus.json", state_to_json(plus))
    res = run_cli("measure", "coherence", path)
    report = json.loads(res.stdout)
    assert report["C"] == pytest.approx(1.0, abs=1e-9)
    assert report["C_tr"] == pytest.approx(0.5, abs=1e-9)


def test_cli_measure_discord_anchors(tmp_path):
    path = write_json(tmp_path, "ic.json", state_to_json(zero_discord_example()))
    report = json.loads(run_cli("measure", "discord", path).stdout)
    assert abs(report["delta"]) < 1e-9

    path = write_json(tmp_path, "rhop.json", state_to_json(delta_creation_demo()["state"]))
    report = json.loads(run_cli("measure", "discord", path).stdout)
    assert report["delta"] == pytest.approx(0.1887, abs=5e-4)


def test_cli_measure_recoverability(tmp_path):
    path = write_json(tmp_path, "ic.json", state_to_json(zero_discord_example()))
    report = json.loads(run_cli("measure", "recoverability", path, "--budget", "0").stdout)
    assert report["value"] < 1e-6
    assert report["petz_value"] < 1e-6


def test_cli_reproduce_cases():
    for case in ("delta-creation", "zero-delta", "j-witness", "depolarizing-boundary"):
        res = run_cli("reproduce", case)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["pass"] is True


def test_cli_suite_pass_and_determinism():
    a = run_cli("suite", "hierarchy", "--trials", "20", "--seed", "7")
    b = run_cli("suite", "hierarchy", "--trials", "20", "--seed", "7")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    report = json.loads(a.stdout)
    assert report["failures"] == [] and report["trials"] == 20


def test_cli_seed_env_fallback():
    res = run_cli("suite", "si-commutes", "--trials", "6", env={"COHERENCE_KIT_SEED": "5"})
    assert json.loads(res.stdout)["seed"] == 5


def test_cli_exit_codes():
    res = run_cli("suite", "no-such-suite")
    assert res.returncode == 2
    res = run_cli("classify", "/nonexistent/channel.json")
    assert res.returncode == 2
    assert res.stdout.strip() == ""  # diagnostics on stderr only
    assert "error" in res.stderr


def test_cli_rejects_non_finite_input(tmp_path):
    state = state_to_json(zero_discord_example())
    state["matrix"][0][1] = [float("nan"), 0.0]
    channel = channel_to_json(NON_SI)
    channel["kraus"][0][1][0] = [float("nan"), 0.0]
    for args in (
        ("measure", "discord", write_json(tmp_path, "nan-state.json", state)),
        ("classify", write_json(tmp_path, "nan-channel.json", channel)),
    ):
        res = run_cli(*args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "non-finite" in res.stderr


def test_cli_rejects_non_density_bare_matrix(tmp_path):
    # Hermitian with unit trace but eigenvalues 1.5 and -0.5: only the
    # parser's positivity check can refuse it.
    path = write_json(tmp_path, "neg.json", state_to_json(np.array([[0.5, 1.0], [1.0, 0.5]], dtype=complex)))
    res = run_cli("measure", "coherence", path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "negative eigenvalue" in res.stderr
    with pytest.raises(ParseError, match="negative eigenvalue"):
        state_from_json(state_to_json(np.array([[0.5, 1.0], [1.0, 0.5]], dtype=complex)))


def test_cli_classify_rejects_bad_tolerance(tmp_path):
    path = write_json(tmp_path, "id.json", channel_to_json(identity_channel(2)))
    for tol in ("nan", "inf", "-1"):
        res = run_cli("classify", path, "--tol", tol)
        assert res.returncode == 2, tol
        assert res.stdout == ""
        assert "tolerance" in res.stderr


def test_cli_rejects_negative_trials():
    res = run_cli("suite", "hierarchy", "--trials", "-1", "--seed", "7")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--trials" in res.stderr
    from coherence_kit.suites import run_suite

    with pytest.raises(ValueError, match="non-negative"):
        run_suite("hierarchy", trials=-1)


@pytest.mark.parametrize("violation", ["discord identity", "GI without SI"])
def test_cli_invariant_violation_exits_3(violation, tmp_path, monkeypatch, capsys):
    import dataclasses

    from coherence_kit import cli, coherence, discord

    if violation == "discord identity":
        real = discord.rel_ent_coherence
        monkeypatch.setattr(discord, "rel_ent_coherence", lambda rho, basis=None: real(rho, basis) + 0.5)
        argv = ["measure", "discord", write_json(tmp_path, "s.json", state_to_json(zero_discord_example()))]
    else:
        real = coherence.classify_kraus
        monkeypatch.setattr(
            coherence,
            "classify_kraus",
            lambda *a: dataclasses.replace(real(*a), strictly_incoherent=False, genuinely_incoherent=True),
        )
        argv = ["classify", write_json(tmp_path, "c.json", channel_to_json(NON_SI))]
    assert cli.main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "invariant violated" in out.err and violation in out.err


def test_import_loads_no_scipy():
    code = (
        "import sys, coherence_kit, coherence_kit.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env())
    assert res.stdout.strip() == "[]"


def test_cli_rejects_negative_budget(tmp_path):
    path = write_json(tmp_path, "ic.json", state_to_json(zero_discord_example()))
    res = run_cli("measure", "recoverability", path, "--budget", "-3")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--budget" in res.stderr
