"""Kraus channels, Choi matrices, bipartite states and memory extension."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DimensionError,
    dagger,
    eigvals_hermitian,
    ket,
    partial_trace,
    validate_density_matrix,
)

TP_TOL = 1e-10
NEGLIGIBLE_OUTCOME = 1e-12


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
        if len(self.kraus) == 0:
            raise ChannelError("need at least one Kraus operator")
        try:
            ops = np.array(self.kraus, dtype=complex)
        except ValueError as err:
            raise ChannelError(f"Kraus operators differ in shape: {err}") from err
        if ops.ndim != 3:
            raise ChannelError(f"Kraus operators must be matrices, got stack shape {ops.shape}")
        ops.flags.writeable = False
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "dim_in", self.dim_in or ops.shape[2])
        object.__setattr__(self, "dim_out", self.dim_out or ops.shape[1])
        if ops.shape[1:] != (self.dim_out, self.dim_in):
            raise ChannelError(f"Kraus shape {ops.shape[1:]} != ({self.dim_out}, {self.dim_in})")
        if not np.all(np.isfinite(ops)):
            raise ChannelError("Kraus operator has a non-finite entry")
        gram = self.completeness()
        top = eigvals_hermitian(gram - np.eye(self.dim_in))[-1]
        if top > TP_TOL:
            raise ChannelError(f"sum K^dag K exceeds identity by {top:.3e}")

    def completeness(self) -> np.ndarray:
        return (dagger(self.kraus) @ self.kraus).sum(axis=0)

    @property
    def trace_preserving(self) -> bool:
        return bool(np.max(np.abs(self.completeness() - np.eye(self.dim_in))) <= TP_TOL)

    def __len__(self) -> int:
        return len(self.kraus)


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel((np.eye(dim, dtype=complex),))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    return KrausChannel((np.asarray(u, dtype=complex),))


def dephasing_channel(dim: int) -> KrausChannel:
    """Full dephasing in the computational basis: Kraus {|i><i|}."""
    return KrausChannel(tuple(np.outer(ket(i, dim), ket(i, dim)) for i in range(dim)))


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix with a declared (dim_a, dim_b) tensor factorization."""

    state: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        mat = np.asarray(self.state, dtype=complex)
        object.__setattr__(self, "state", mat)
        if mat.shape != (self.dim_a * self.dim_b, self.dim_a * self.dim_b):
            raise DimensionError(f"dims ({self.dim_a},{self.dim_b}) do not factor {mat.shape}")
        validate_density_matrix(mat)

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


def unit_images(channel: KrausChannel, columns: np.ndarray | None = None) -> np.ndarray:
    """All images E(|b_i><b_j|) at once, as an array indexed [i, j, a, b].

    ``columns`` holds the input basis vectors b_i as columns (default the
    computational basis); the images stay in the output's computational
    coordinates.  With A_mu = K_mu B the image is sum_mu A_mu[:, i] A_mu[:, j]^dag.
    """
    a = channel.kraus if columns is None else channel.kraus @ columns
    return np.einsum("kai,kbj->ijab", a, a.conj())


def selected_outcome(channel: KrausChannel, mu: int, rho: np.ndarray):
    """Probability and normalized conditional state of one measurement branch.

    Branches with probability below 1e-12 are flagged negligible (state None).
    """
    k = channel.kraus[mu]
    out = k @ np.asarray(rho, dtype=complex) @ dagger(k)
    p = float(np.real(np.trace(out)))
    if p < NEGLIGIBLE_OUTCOME:
        return p, None
    return p, out / p


def compose(second: KrausChannel, first: KrausChannel) -> KrausChannel:
    if second.dim_in != first.dim_out:
        raise DimensionError("composition dimension mismatch")
    ops = second.kraus[:, None] @ first.kraus[None, :]
    return KrausChannel(ops.reshape(-1, second.dim_out, first.dim_in))


def choi(channel: KrausChannel) -> np.ndarray:
    """(E x id) on the normalized maximally entangled state sum_j |jj>/sqrt(d).

    Entry [(a, j), (b, l)] is E(|j><l|)[a, b] / d, so this is a transpose and
    reshape of ``unit_images``; the output factor comes first.
    """
    d, d_out = channel.dim_in, channel.dim_out
    return unit_images(channel).transpose(2, 0, 3, 1).reshape(d_out * d, d_out * d) / d


def _local_branches(k: np.ndarray, state: np.ndarray, dims: tuple[int, int], side: str) -> np.ndarray:
    """Per-outcome local action of a raw ``(r, d_out, d_in)`` Kraus stack on a
    bipartite matrix: (K_mu x I) rho (K_mu x I)^dag for side "A",
    (I x K_mu) rho (I x K_mu)^dag for side "B".

    The state is viewed as a (d_a, d_b, d_a, d_b) tensor whose acted-on
    indices are contracted with the Kraus stack; no K x I is formed.
    """
    da, db = dims
    if side == "A":
        d_in, other, into, out_of = da, db, (0, 1, 3, 2), (0, 1, 2, 4, 3)
    elif side == "B":
        d_in, other, into, out_of = db, da, (1, 0, 2, 3), (0, 2, 1, 3, 4)
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    r, d_out, k_in = k.shape
    if k_in != d_in:
        raise DimensionError(f"channel does not act on side {side}'s dimension")
    # Indices [a, i, j, b]: a and b are the acted-on ket and bra indices.
    t = state.reshape(da, db, da, db).transpose(into).reshape(d_in, -1)
    half = (k @ t).reshape(r, d_out * other * other, d_in)
    out = (half @ dagger(k)).reshape(r, d_out, other, other, d_out).transpose(out_of)
    return out.reshape(r, d_out * other, d_out * other)


def local_branches(channel: KrausChannel, rho: BipartiteState, side: str) -> np.ndarray:
    """Per-outcome local action, stacked: (K_mu x I) rho (K_mu x I)^dag for
    side "A", (I x K_mu) rho (I x K_mu)^dag for side "B"."""
    return _local_branches(channel.kraus, rho.state, rho.dims, side)


def local_apply(channel: KrausChannel, rho: BipartiteState, side: str) -> BipartiteState:
    """(E x id)(rho) for side "A" or (id x E)(rho) for side "B"."""
    out = local_branches(channel, rho, side).sum(axis=0)
    if side == "A":
        return BipartiteState(out, channel.dim_out, rho.dim_b)
    return BipartiteState(out, rho.dim_a, channel.dim_out)


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
    return KrausChannel(ops.reshape(m, m * channel.dim_out, channel.dim_in))


def classical_action(channel: KrausChannel, basis_columns: np.ndarray | None = None) -> np.ndarray:
    """(Sub)stochastic matrix T_ij = <i| E(|j><j|) |i> in the given basis.

    This is sum_mu |<i|K_mu|j>|^2 with the Kraus operators in basis coordinates.
    """
    k = channel.kraus
    if basis_columns is not None:
        k = dagger(basis_columns) @ k @ basis_columns
    return np.sum(np.abs(k) ** 2, axis=0)


def pad_trace_preserving(channel: KrausChannel) -> KrausChannel:
    """Complete sum K^dag K to the identity with one extra Kraus operator.

    The completion is sqrt(I - sum K^dag K), well-defined for any
    trace-nonincreasing channel; a no-op when already trace-preserving.
    """
    gap = np.eye(channel.dim_in) - channel.completeness()
    if np.max(np.abs(gap)) <= TP_TOL:
        return channel
    from .linalg import matrix_function

    extra = matrix_function((gap + dagger(gap)) / 2.0, "sqrt")
    if channel.dim_out != channel.dim_in:
        raise ChannelError("can only pad square channels")
    return KrausChannel(np.concatenate([channel.kraus, extra[None]]))
