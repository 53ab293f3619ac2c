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
    tensor_product,
    validate_density_matrix,
)

TP_TOL = 1e-10
NEGLIGIBLE_OUTCOME = 1e-12


class ChannelError(ValueError):
    pass


@dataclass(frozen=True)
class KrausChannel:
    """Ordered list of Kraus operators with fixed input/output dimensions.

    The list is stored exactly as given; no canonicalization is applied,
    because the incoherence classification depends on the representation.
    """

    kraus: tuple[np.ndarray, ...]
    dim_in: int = field(default=0)
    dim_out: int = field(default=0)

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ChannelError("need at least one Kraus operator")
        dout, din = ops[0].shape
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "dim_in", self.dim_in or din)
        object.__setattr__(self, "dim_out", self.dim_out or dout)
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise ChannelError(f"Kraus shape {k.shape} != ({self.dim_out}, {self.dim_in})")
        if not all(np.all(np.isfinite(k)) for k in ops):
            raise ChannelError("Kraus operator has a non-finite entry")
        gram = self.completeness()
        top = eigvals_hermitian(gram - np.eye(self.dim_in))[-1]
        if top > TP_TOL:
            raise ChannelError(f"sum K^dag K exceeds identity by {top:.3e}")

    def completeness(self) -> np.ndarray:
        return sum(dagger(k) @ k for k in self.kraus)

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
    return sum(k @ rho @ dagger(k) for k in channel.kraus)


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
    return KrausChannel(tuple(k2 @ k1 for k2 in second.kraus for k1 in first.kraus))


def choi(channel: KrausChannel) -> np.ndarray:
    """(E x id) on the normalized maximally entangled state sum_j |jj>/sqrt(d)."""
    d = channel.dim_in
    alpha = np.zeros(d * d, dtype=complex)
    for j in range(d):
        alpha[j * d + j] = 1.0 / np.sqrt(d)
    proj = np.outer(alpha, alpha.conj())
    embedded = KrausChannel(tuple(tensor_product(k, np.eye(d)) for k in channel.kraus))
    return apply(embedded, proj)


def local_channel(channel: KrausChannel, other_dim: int, side: str) -> KrausChannel:
    """Embed a channel as (E x id) or (id x E) via K x I / I x K."""
    eye = np.eye(other_dim, dtype=complex)
    if side == "A":
        ops = tuple(tensor_product(k, eye) for k in channel.kraus)
    elif side == "B":
        ops = tuple(tensor_product(eye, k) for k in channel.kraus)
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return KrausChannel(ops)


def local_apply(channel: KrausChannel, rho: BipartiteState, side: str) -> BipartiteState:
    if side == "A":
        if channel.dim_in != rho.dim_a:
            raise DimensionError("channel does not act on side A's dimension")
        emb = local_channel(channel, rho.dim_b, "A")
        return BipartiteState(apply(emb, rho.state), channel.dim_out, rho.dim_b)
    if channel.dim_in != rho.dim_b:
        raise DimensionError("channel does not act on side B's dimension")
    emb = local_channel(channel, rho.dim_a, "B")
    return BipartiteState(apply(emb, rho.state), rho.dim_a, channel.dim_out)


def with_memory(channel: KrausChannel) -> KrausChannel:
    """Record the outcome index in a register: F(rho) = sum |mu><mu| x E^mu(rho).

    The memory register comes first in the tensor order, so tracing it out
    with ``partial_trace(..., keep="B")`` recovers the plain channel action.
    """
    if not channel.trace_preserving:
        raise ChannelError("memory extension needs a trace-preserving channel")
    m = len(channel)
    ops = tuple(
        tensor_product(ket(mu, m).reshape(m, 1), k) for mu, k in enumerate(channel.kraus)
    )
    return KrausChannel(ops)


def classical_action(channel: KrausChannel, basis_columns: np.ndarray | None = None) -> np.ndarray:
    """(Sub)stochastic matrix T_ij = <i| E(|j><j|) |i> in the given basis."""
    d_in, d_out = channel.dim_in, channel.dim_out
    t = np.zeros((d_out, d_in))
    for j in range(d_in):
        if basis_columns is None:
            proj = np.outer(ket(j, d_in), ket(j, d_in))
        else:
            proj = np.outer(basis_columns[:, j], basis_columns[:, j].conj())
        out = apply(channel, proj)
        if basis_columns is None:
            t[:, j] = np.real(np.diag(out))
        else:
            t[:, j] = np.real(np.einsum("ia,ij,ja->a", basis_columns.conj(), out, basis_columns))
    return t


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
    return KrausChannel(channel.kraus + (extra,))
