"""Numerics for the incoherent-operation hierarchy, basis-dependent discord
and depolarizing channels."""

from .channels import (
    BipartiteState,
    ChannelError,
    KrausChannel,
    apply,
    choi,
    compose,
    dephasing_channel,
    identity_channel,
    local_apply,
    pad_trace_preserving,
    unit_images,
    unitary_channel,
    with_memory,
)
from .coherence import (
    Basis,
    ClassificationReport,
    DilationSpec,
    classify_channel,
    classify_kraus,
    coherence_measures,
    dephase,
    dilation_construct,
    dilation_verify,
    fidelity_coherence,
    random_gi_channel,
    random_incoherent_not_si_channel,
    random_si_channel,
    rel_ent_coherence,
)
from .discord import (
    DiscordReport,
    ZeroDiscordDecomposition,
    basis_discord,
    classical_correlations,
    delta_creation_demo,
    ensemble_monotonicity_trial,
    j_increase_witness,
    memory_monotonicity_trial,
    mutual_information,
    petz_recover,
    recoverability,
    zero_discord_decompose,
    zero_discord_example,
)
from .linalg import (
    DimensionError,
    InvalidStateError,
    InvariantError,
    NotHermitianError,
    eig_hermitian,
    eigvals_hermitian,
    entropy,
    fidelity,
    partial_trace,
    relative_entropy,
    tensor_product,
    trace_distance,
)
from .sampling import draw
from .suites import SUITES, run_suite
from .universal import (
    bell_basis,
    channel_zoo,
    depolarizing_channel,
    every_basis_falsifier,
    is_depolarizing,
    is_unital,
    isotropic_decompose,
    p_range,
    weyl_operator,
)

__version__ = "0.1.0"
