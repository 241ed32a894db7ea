"""Federated learning with heterogeneous pruned client models.

Masked local SGD on pruned per-client models, region-wise global
aggregation, quartile-segment pruning policies, coverage/noise
instrumentation, and the parameter/FLOP accounting behind them.
"""

from .data import Dataset, PartitionSpec, load_idx, partition, synth_blobs
from .federation import (
    CoverageError,
    FederatedData,
    FederationConfig,
    GlobalState,
    IdxSpec,
    SynthSpec,
    aggregate,
    build_federated_data,
    coverage_counts,
    local_update,
    run,
    run_round,
    sample_participants,
)
from .metrics import (
    ModelAccount,
    RoundMetrics,
    TheoryConstants,
    account,
    amortized,
    grad_norm_estimate,
    theorem1_rhs,
    theorem2_rhs,
    weighted_accuracy,
)
from .nn import (
    Batch,
    LayerLayout,
    OptimizerState,
    ParamVector,
    evaluate,
    forward,
    init_params,
    loss_and_grad,
    masked_sgd_step,
)
from .pruning import (
    Mask,
    MaskableSet,
    PolicyAssignment,
    PruningPolicy,
    apply_mask,
    codename_coverage,
    default_maskable_set,
    generate_mask,
    parse_codename,
    pruning_noise,
    quartile_segments,
    rank_maskable,
)

__version__ = "0.1.0"
