"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py [--seed N]

Runs one block of every workload.  Each op's check must pass on the real
output; then, for every assertion k the check makes, the check is run again
with the program's value in assertion k moved just past its tolerance, and
it must report the op as wrong.  Known-fault ops are skipped: their check
is the expected exit code, not a tolerance.  Exits 1 if any check is dead.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from checks import Checker, Wrong
from harness import OUT, import_program
from workloads import WORKLOADS


def selftest(ck, seed: int) -> list[str]:
    problems = []
    for name, cls in WORKLOADS.items():
        workdir = os.path.join(OUT, f"selftest-{name}-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            asserted = 0
            for op in cls(ck, seed, workdir).block(0):
                out = op.run()
                if op.fault:
                    continue
                clean = Checker()
                try:
                    op.check(clean, out)
                except Wrong as err:
                    problems.append(f"{name}/{op.name}: fails unperturbed: {err}")
                    continue
                for k in range(clean.count):
                    try:
                        op.check(Checker(perturb=k), out)
                    except Wrong:
                        continue
                    problems.append(f"{name}/{op.name}: assertion {k} passes a value past its tolerance")
                asserted += clean.count
            print(f"{name}: {asserted} assertions perturbed", file=sys.stderr)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    problems = selftest(import_program(), args.seed)
    for line in problems:
        print(line, file=sys.stderr)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
