"""Kraus channels, Choi matrices, bipartite states and memory extension."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    VALIDATION_TOL,
    DimensionError,
    InvalidStateError,
    dagger,
    eigvals_hermitian,
    ket,
    matrix_function,
    partial_trace,
    validate_density_matrix,
)


class ChannelError(ValueError):
    pass


@dataclass(frozen=True)
class KrausChannel:
    """Kraus operators stored as one read-only ``(r, dim_out, dim_in)`` stack.

    The operators are kept exactly as given, in order; no canonicalization
    is applied, because the incoherence classification depends on the
    representation.  Iteration, ``len`` and indexing run over the operators.
    """

    kraus: np.ndarray
    dim_in: int = field(default=0)
    dim_out: int = field(default=0)

    def __post_init__(self):
        self._store(self.kraus, self.dim_in, self.dim_out)
        top = eigvals_hermitian(self.completeness() - np.eye(self.dim_in))[-1]
        if top > VALIDATION_TOL:
            raise ChannelError(f"sum K^dag K exceeds identity by {top:.3e}")

    @classmethod
    def _built(cls, kraus) -> "KrausChannel":
        """A channel derived from validated objects, CP and trace-nonincreasing
        by construction: stored and checked as by the constructor, less its eigensolve."""
        self = object.__new__(cls)
        self._store(kraus, 0, 0)
        return self

    def _store(self, kraus, dim_in: int, dim_out: int) -> None:
        if len(kraus) == 0:
            raise ChannelError("need at least one Kraus operator")
        try:
            ops = np.array(kraus, dtype=complex)
        except ValueError as err:
            raise ChannelError(f"Kraus operators differ in shape: {err}") from err
        if ops.ndim != 3:
            raise ChannelError(f"Kraus operators must be matrices, got stack shape {ops.shape}")
        ops.flags.writeable = False
        self.__dict__.update(kraus=ops, dim_in=dim_in or ops.shape[2], dim_out=dim_out or ops.shape[1])
        if ops.shape[1:] != (self.dim_out, self.dim_in):
            raise ChannelError(f"Kraus shape {ops.shape[1:]} != ({self.dim_out}, {self.dim_in})")
        if not np.isfinite(ops).all():
            raise ChannelError("Kraus operator has a non-finite entry")

    def completeness(self) -> np.ndarray:
        return (dagger(self.kraus) @ self.kraus).sum(axis=0)

    @property
    def trace_preserving(self) -> bool:
        return bool(np.max(np.abs(self.completeness() - np.eye(self.dim_in))) <= VALIDATION_TOL)

    def __len__(self) -> int:
        return len(self.kraus)


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel._built((np.eye(dim, dtype=complex),))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    return KrausChannel((np.asarray(u, dtype=complex),))


def dephasing_channel(dim: int) -> KrausChannel:
    """Full dephasing in the computational basis: Kraus {|i><i|}."""
    return KrausChannel._built(tuple(np.outer(ket(i, dim), ket(i, dim)) for i in range(dim)))


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix with a declared (dim_a, dim_b) tensor factorization.

    ``state`` is a read-only copy of the matrix given, so it cannot drift
    from ``spectrum``: its eigenvalues in ascending order, as computed by the
    validation (``validate_density_matrix``), or on first read for a state
    from ``_built``.
    """

    state: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        self._store(self.state, self.dim_a, self.dim_b)
        self.__dict__["spectrum"] = validate_density_matrix(self.state)
        self.spectrum.flags.writeable = False

    @classmethod
    def _built(cls, state, dim_a: int, dim_b: int) -> "BipartiteState":
        """A state derived from validated objects, a density matrix by
        construction: stored and checked as by the constructor, less its eigensolve."""
        self = object.__new__(cls)
        self._store(state, dim_a, dim_b)
        return self

    def _store(self, state, dim_a: int, dim_b: int) -> None:
        mat = np.array(state, dtype=complex)
        mat.flags.writeable = False
        self.__dict__.update(state=mat, dim_a=dim_a, dim_b=dim_b)
        if mat.shape != (self.dim_a * self.dim_b, self.dim_a * self.dim_b):
            raise DimensionError(f"dims ({self.dim_a},{self.dim_b}) do not factor {mat.shape}")
        if not np.isfinite(mat).all():
            raise InvalidStateError("density matrix has a non-finite entry")

    @cached_property
    def spectrum(self) -> np.ndarray:
        """``eigvals_hermitian(state)``, read-only."""
        lam = eigvals_hermitian(self.state)
        lam.flags.writeable = False
        return lam

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_a, self.dim_b)

    def marginal(self, side: str) -> np.ndarray:
        return partial_trace(self.state, self.dims, side)


def apply(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """sum_mu K_mu rho K_mu^dag (possibly subnormalized)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (channel.dim_in, channel.dim_in):
        raise DimensionError(f"state dim {rho.shape} != channel input {channel.dim_in}")
    k = channel.kraus
    return (k @ rho @ dagger(k)).sum(axis=0)


def unit_images(channel: KrausChannel) -> np.ndarray:
    """All images E(|i><j|) at once, as an array indexed [i, j, a, b]:
    sum_mu K_mu[:, i] K_mu[:, j]^dag."""
    return np.einsum("kai,kbj->ijab", channel.kraus, channel.kraus.conj())


def compose(second: KrausChannel, first: KrausChannel) -> KrausChannel:
    if second.dim_in != first.dim_out:
        raise DimensionError("composition dimension mismatch")
    ops = second.kraus[:, None] @ first.kraus[None, :]
    return KrausChannel._built(ops.reshape(-1, second.dim_out, first.dim_in))


def choi(channel: KrausChannel) -> np.ndarray:
    """(E x id) on the normalized maximally entangled state sum_j |jj>/sqrt(d).

    Entry [(a, j), (b, l)] is E(|j><l|)[a, b] / d, so this is a transpose and
    reshape of ``unit_images``; the output factor comes first.
    """
    d, d_out = channel.dim_in, channel.dim_out
    return unit_images(channel).transpose(2, 0, 3, 1).reshape(d_out * d, d_out * d) / d


def local_branches(channel: KrausChannel, rho: BipartiteState, side: str) -> np.ndarray:
    """Per-outcome local action, stacked: (K_mu x I) rho (K_mu x I)^dag for
    side "A", (I x K_mu) rho (I x K_mu)^dag for side "B".

    The state is viewed as a (d_a, d_b, d_a, d_b) tensor whose acted-on
    indices are contracted with the Kraus stack; no K x I is formed.
    """
    da, db = rho.dims
    if side == "A":
        d_in, other, into, out_of = da, db, (0, 1, 3, 2), (0, 1, 2, 4, 3)
    elif side == "B":
        d_in, other, into, out_of = db, da, (1, 0, 2, 3), (0, 2, 1, 3, 4)
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    k = channel.kraus
    r, d_out, k_in = k.shape
    if k_in != d_in:
        raise DimensionError(f"channel does not act on side {side}'s dimension")
    # Indices [a, i, j, b]: a and b are the acted-on ket and bra indices.
    t = rho.state.reshape(da, db, da, db).transpose(into).reshape(d_in, -1)
    half = (k @ t).reshape(r, d_out * other * other, d_in)
    out = (half @ dagger(k)).reshape(r, d_out, other, other, d_out).transpose(out_of)
    return out.reshape(r, d_out * other, d_out * other)


def local_apply(channel: KrausChannel, rho: BipartiteState, side: str) -> BipartiteState:
    """(E x id)(rho) for side "A" or (id x E)(rho) for side "B"."""
    out = local_branches(channel, rho, side).sum(axis=0)
    if side == "A":
        return BipartiteState._built(out, channel.dim_out, rho.dim_b)
    return BipartiteState._built(out, rho.dim_a, channel.dim_out)


def with_memory(channel: KrausChannel) -> KrausChannel:
    """Record the outcome index in a register: F(rho) = sum |mu><mu| x E^mu(rho).

    The memory register comes first in the tensor order, so tracing it out
    with ``partial_trace(..., keep="B")`` recovers the plain channel action.
    """
    if not channel.trace_preserving:
        raise ChannelError("memory extension needs a trace-preserving channel")
    m = len(channel)
    ops = np.zeros((m, m, channel.dim_out, channel.dim_in), dtype=complex)
    ops[np.arange(m), np.arange(m)] = channel.kraus
    return KrausChannel._built(ops.reshape(m, m * channel.dim_out, channel.dim_in))


def pad_trace_preserving(channel: KrausChannel) -> KrausChannel:
    """Complete sum K^dag K to the identity with one extra Kraus operator.

    The completion is sqrt(I - sum K^dag K), well-defined for any
    trace-nonincreasing channel; a no-op when already trace-preserving.
    """
    if channel.trace_preserving:
        return channel
    if channel.dim_in != channel.dim_out:
        raise ChannelError("can only pad square channels")
    gap = np.eye(channel.dim_in) - channel.completeness()
    extra = matrix_function((gap + dagger(gap)) / 2.0, "sqrt")
    return KrausChannel._built(np.concatenate([channel.kraus, extra[None]]))
