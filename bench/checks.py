"""Correctness assertions used by every benchmark op.

Each assertion takes the program's value first.  A ``Checker`` built with
``perturb=k`` replaces the program's value in its k-th assertion with one
just past the tolerance, in the direction that must fail; ``selftest.py``
uses that to prove every assertion is live.
"""

from __future__ import annotations

import sys

EPS = sys.float_info.epsilon


class Wrong(Exception):
    """An op's output failed a correctness check."""


def _past(edge: float, slack: float) -> float:
    """Smallest useful step beyond ``edge``: 0.1% of the slack, at least a few ulps."""
    return max(abs(slack) * 1e-3, 8.0 * EPS * max(1.0, abs(edge)))


class Checker:
    def __init__(self, perturb: int | None = None):
        self.perturb = perturb
        self.count = 0

    def _hit(self) -> bool:
        hit = self.count == self.perturb
        self.count += 1
        return hit

    def close(self, label: str, got: float, want: float, tol: float) -> None:
        """|got - want| <= tol."""
        if self._hit():
            got = want + tol + _past(want + tol, tol)
        if not abs(got - want) <= tol:
            raise Wrong(f"{label}: {got!r} differs from {want!r} by more than {tol:g}")

    def le(self, label: str, a: float, b: float, slack: float = 0.0) -> None:
        """a <= b + slack."""
        if self._hit():
            a = b + slack + _past(b + slack, slack)
        if not a <= b + slack:
            raise Wrong(f"{label}: {a!r} > {b!r} + {slack:g}")

    def ge(self, label: str, a: float, b: float, slack: float = 0.0) -> None:
        """a >= b - slack."""
        if self._hit():
            a = b - slack - _past(b - slack, slack)
        if not a >= b - slack:
            raise Wrong(f"{label}: {a!r} < {b!r} - {slack:g}")

    def lt(self, label: str, a: float, bound: float) -> None:
        """a < bound."""
        if self._hit():
            a = bound
        if not a < bound:
            raise Wrong(f"{label}: {a!r} is not below {bound:g}")

    def gt(self, label: str, a: float, bound: float) -> None:
        """a > bound."""
        if self._hit():
            a = bound
        if not a > bound:
            raise Wrong(f"{label}: {a!r} is not above {bound:g}")

    def true(self, label: str, cond: bool) -> None:
        if self._hit():
            cond = not cond
        if not cond:
            raise Wrong(f"{label}: does not hold")

    def equal(self, label: str, got, want) -> None:
        if self._hit():
            got = ("perturbed", got)
        if got != want:
            raise Wrong(f"{label}: got {got!r}, want {want!r}")
