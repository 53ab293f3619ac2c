"""Span tracing of coherence_kit from the benchmark's side.

``Tracer.install`` wraps every public function of the library's modules and
rebinds the wrapper under each name that any ``coherence_kit.*`` namespace
(the package included) holds for the original, so calls made inside the
library, which look names up at call time, become child spans.  The
dataclass validators of ``KrausChannel`` and ``BipartiteState`` and the
``minimize`` names of ``discord`` and ``coherence`` are wrapped too.
``uninstall`` puts every original back.  No file of the program changes.

Spans live in memory as ``[name, parent, op, start, end, self]`` and are
written out after the run.  Self time is a span's duration minus the
durations of its direct children; every run is serial, so there is no
waiting time to separate out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("linalg", "channels", "coherence", "discord", "universal", "serialize", "cli", "sampling")
OPTIMIZER_MODULES = ("discord", "coherence")

EIG = ("linalg.eig_hermitian", "linalg.eigvals_hermitian")

# Per-layer metric -> the spans it counts.
COUNTS = {
    "linalg.eig_calls": EIG,
    "linalg.validate_calls": ("linalg.validate_density_matrix",),
    "channels.apply_calls": ("channels.apply",),
    "channels.tensor_product_calls": ("linalg.tensor_product",),
    "channels.state_validations": ("channels.BipartiteState.__post_init__",),
    "channels.kraus_validations": ("channels.KrausChannel.__post_init__",),
    "discord.basis_discord_calls": ("discord.basis_discord",),
}

# Per-layer metric -> the spans whose self time it sums.
SELF_TIMES = {
    "linalg.eig_self_s": EIG,
    "linalg.entropy_self_s": ("linalg.entropy",),
    "linalg.fidelity_self_s": ("linalg.fidelity",),
    "linalg.relative_entropy_self_s": ("linalg.relative_entropy",),
    "linalg.trace_distance_self_s": ("linalg.trace_distance",),
    "channels.apply_self_s": ("channels.apply",),
    "channels.local_apply_self_s": ("channels.local_apply",),
    "coherence.classify_self_s": ("coherence.classify_channel", "coherence.classify_kraus"),
    "coherence.dephasing_deviation_self_s": ("coherence.dephasing_commutant_deviation",),
    "coherence.fidelity_coherence_self_s": ("coherence.fidelity_coherence",),
    "discord.basis_discord_self_s": ("discord.basis_discord",),
    "discord.recoverability_self_s": ("discord.recoverability",),
    "universal.falsifier_self_s": ("universal.every_basis_falsifier",),
    "universal.is_depolarizing_self_s": ("universal.is_depolarizing",),
    "universal.isotropic_decompose_self_s": ("universal.isotropic_decompose",),
}

# Per-layer metric -> span-name predicate, for whole-module self times.
MODULE_SELF_TIMES = {
    "serialize.parse_self_s": lambda n: n.startswith("serialize.") and (n.endswith("_from_json") or n == "serialize.load_json"),
    "cli.main_self_s": lambda n: n.startswith("cli."),
    "sampling.self_s": lambda n: n.startswith("sampling."),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []  # [span index, summed child duration]
        self.op: int | None = None
        self.optimizer_runs: dict[str, list[tuple[int, bool]]] = {m: [] for m in OPTIMIZER_MODULES}
        self.optimizer_skipped = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        span = [name, parent, self.op, 0.0, 0.0, 0.0]
        self._stack.append([len(self.spans), 0.0])
        self.spans.append(span)
        span[3] = time.perf_counter()

    def _exit(self) -> None:
        end = time.perf_counter()
        index, child = self._stack.pop()
        span = self.spans[index]
        duration = end - span[3]
        span[4] = end
        span[5] = duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def call(self, name: str, fn, *args, **kwargs):
        self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _wrap_minimize(self, module: str, fn):
        runs = self.optimizer_runs[module]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = self.call(f"{module}.minimize", fn, *args, **kwargs)
            runs.append((int(res.nfev), bool(res.success)))
            return res

        return wrapper

    def _wrap_recoverability(self, fn):
        runs = self.optimizer_runs["discord"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = len(runs)
            res = self.call("discord.recoverability", fn, *args, **kwargs)
            if len(runs) == before:
                self.optimizer_skipped += 1
            return res

        return wrapper

    # -- (un)installing -----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            mod = importlib.import_module(f"coherence_kit.{short}")
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                full = f"{short}.{name}"
                wrapped = self._wrap_recoverability(fn) if full == "discord.recoverability" else self._wrap(full, fn)
                wrappers[id(fn)] = (fn, wrapped)
        namespaces = [m for n, m in sys.modules.items() if n == "coherence_kit" or n.startswith("coherence_kit.")]
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(ns, name, entry[1])
        for short in OPTIMIZER_MODULES:
            mod = sys.modules[f"coherence_kit.{short}"]
            if hasattr(mod, "minimize"):
                self._patch(mod, "minimize", self._wrap_minimize(short, mod.minimize))
        channels = sys.modules["coherence_kit.channels"]
        for cls in (channels.KrausChannel, channels.BipartiteState):
            init = cls.__dict__.get("__post_init__")
            if init is not None:
                self._patch(cls, "__post_init__", self._wrap(f"channels.{cls.__name__}.__post_init__", init))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for name, _, _, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        out: dict[str, tuple[float, str]] = {}
        for metric, names in COUNTS.items():
            out[metric] = (sum(calls[n] for n in names), "count")
        for metric, names in SELF_TIMES.items():
            out[metric] = (sum(self_s[n] for n in names), "s")
        for metric, match in MODULE_SELF_TIMES.items():
            out[metric] = (sum(v for n, v in self_s.items() if match(n)), "s")
        runs = self.optimizer_runs["discord"]
        out["discord.nm_runs"] = (len(runs), "count")
        out["discord.nm_evals"] = (sum(n for n, _ in runs), "count")
        converged = sum(1 for _, ok in runs if ok)
        out["discord.nm_converged_ratio"] = (converged / len(runs) if runs else 0.0, "ratio")
        out["discord.optimizer_skipped"] = (self.optimizer_skipped, "count")
        out["coherence.nm_evals"] = (sum(n for n, _ in self.optimizer_runs["coherence"]), "count")
        return out

    def write(self, path: str) -> None:
        """One header line with the span names, then one line per span:
        [name index, parent, op, start ns, duration ns, self ns], times
        relative to the first span."""
        names: dict[str, int] = {}
        origin = self.spans[0][3] if self.spans else 0.0
        lines = []
        for name, parent, op, start, end, own in self.spans:
            index = names.setdefault(name, len(names))
            ns = (round((start - origin) * 1e9), round((end - start) * 1e9), round(own * 1e9))
            lines.append(json.dumps([index, parent, op, *ns], separators=(",", ":")))
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": list(names)}) + "\n")
            fh.write("\n".join(lines) + "\n")
