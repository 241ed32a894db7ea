"""Cost accounting, accuracy/convergence instrumentation, and metric emission.

Parameter counts treat a model as "retained weights + retained biases";
FLOPs count retained weight-matrix entries (one multiply-accumulate each,
bias adds excluded) - the only definition that reproduces the full-MLP
pair (159010, 158800) for the 784-200-10 network.

`weighted_accuracy` is arithmetic over correct counts that the round engine
takes while it trains; it sums the slots' accuracies, each times 1/S, in
slot order. A round's `RoundMetrics` is its row of the metrics files: the
fields are the columns, so `emit_csv` and `emit_jsonl` write them as they are.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, astuple, dataclass, fields

from .spec import LayerLayout, check_layout, segment_sizes

@dataclass(frozen=True)
class ModelAccount:
    params_total: int
    flops_total: int


@dataclass(frozen=True)
class AmortizedAccount:
    params_mean: float
    flops_mean: float
    params_ratio: float  # vs full model, rounded to 2 decimals
    flops_ratio: float


@dataclass(frozen=True)
class RoundMetrics:
    """One round's row of the metrics files: the fields are the columns, in order."""

    round: int
    loss: float  # global model on the test set
    acc_global: float
    acc_local: float  # mean over the slots of each local model's accuracy on its own shard
    gamma_min: int
    delta_sq_mean: float  # mean over the slots of the pruning noise
    grad_norm_sq: float  # squared norm of the test-set gradient
    params_amortized: float
    flops_amortized: float


CSV_HEADER = [f.name for f in fields(RoundMetrics)]


@dataclass(frozen=True)
class TheoryConstants:
    """User-supplied constants for the convergence-bound calculators.

    These are unobservable in general; the calculators are calculators,
    not estimators.
    """

    L: float
    G: float
    sigma_sq: float
    K: float
    N: float
    T: float
    Q: float
    gamma_star: float
    delta_sq: float
    avg_theta_norm_sq: float
    f0: float  # expected initial loss E[F(theta_0)]

    def __post_init__(self):
        for name in ("L", "G", "K", "N", "T", "Q", "f0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.sigma_sq < 0 or self.avg_theta_norm_sq < 0:
            raise ValueError("sigma_sq and avg_theta_norm_sq must be non-negative")
        if not 0.0 <= self.delta_sq < 1.0:
            raise ValueError("delta_sq must lie in [0, 1)")
        if self.gamma_star <= 0:
            raise ValueError("gamma_star must be positive")


# ---------------------------------------------------------------------------
# Parameter / FLOP accounting
# ---------------------------------------------------------------------------


def full_account(layout: LayerLayout) -> ModelAccount:
    weights = sum(sl.weight_len for sl in layout.offsets)
    return ModelAccount(layout.total, weights)


def account(layout: LayerLayout, family: str, kept_segments) -> ModelAccount:
    """Retained (params, flops) of a model that keeps `kept_segments` of `family`'s units.

    Only segment sizes matter, so the counts follow from arithmetic on the
    layout, whatever the ranking.
    """
    check_layout(family, layout.layer_sizes[1:-1], layout.offsets[0].weight_len)
    full = full_account(layout)
    if family == "WP":
        # WP's units are the first layer's weights
        sizes = segment_sizes(layout.offsets[0].weight_len)
        cut = sum(n for s, n in enumerate(sizes, 1) if s not in kept_segments)
        return ModelAccount(full.params_total - cut, full.flops_total - cut)
    # NP/FS: whole hidden neurons go; params lose in+1+out, flops in+out each
    d_in, hidden, d_out = layout.layer_sizes
    cut = sum(n for s, n in enumerate(segment_sizes(hidden), 1) if s not in kept_segments)
    return ModelAccount(
        full.params_total - cut * (d_in + 1 + d_out),
        full.flops_total - cut * (d_in + d_out),
    )


def amortized(accounts: list[ModelAccount], full: ModelAccount) -> AmortizedAccount:
    """Mean retained cost across a round's local models, plus ratios vs full.

    The means divide exact integer sums: while a sum stays below 2**53 that
    is the float `np.mean` gives, without its array setup.
    """
    if not accounts:
        raise ValueError("need at least one slot account")
    p = sum(a.params_total for a in accounts) / len(accounts)
    f = sum(a.flops_total for a in accounts) / len(accounts)
    return AmortizedAccount(p, f, round(p / full.params_total, 2), round(f / full.flops_total, 2))


# ---------------------------------------------------------------------------
# Accuracy instrumentation
# ---------------------------------------------------------------------------


def weighted_accuracy(per_slot: list[tuple[int, int]]) -> float:
    """Mean of the slots' accuracies, each on that slot's own data.

    Entries are (correct predictions, examples), one per slot of S;
    `(1/S) * (correct / count)` is added to the total in slot order.
    """
    weight = 1 / len(per_slot)
    total = 0.0
    for correct, count in per_slot:
        total += weight * (correct / count)
    return total


# ---------------------------------------------------------------------------
# Convergence-bound calculators
# ---------------------------------------------------------------------------


def theorem1_rhs(c: TheoryConstants, variant: str = "main") -> float:
    """IID bound: G0/sqrt(TQ) + V0/Q + (I0/gamma*) * delta^2 * avg||theta||^2.

    `variant="alt"` divides the V0 term by sqrt(Q) instead of Q; both
    readings of the bound circulate and neither is endorsed here.
    """
    if variant not in ("main", "alt"):
        raise ValueError("variant must be 'main' or 'alt'")
    g0 = 4.0 * c.f0 + 6.0 * c.L * c.N * c.sigma_sq / c.gamma_star**2
    v0 = 3.0 * c.L**2 * c.N * c.G / c.gamma_star
    i0 = 3.0 * c.L**2 * c.N
    second = v0 / c.Q if variant == "main" else v0 / math.sqrt(c.Q)
    return g0 / math.sqrt(c.T * c.Q) + second + (i0 / c.gamma_star) * c.delta_sq * c.avg_theta_norm_sq


def theorem2_rhs(c: TheoryConstants, variant: str = "main") -> float:
    """Non-IID bound: H0/sqrt(TQ) + U0/Q + sigma^2 * I0 * avg||theta||^2.

    `variant="alt"` keeps the coverage divisors and noise weighting of
    the IID form: H0/sqrt(TQ) + V0/sqrt(Q)
    + (I0/gamma*) * delta^2 * avg||theta||^2.
    """
    if variant not in ("main", "alt"):
        raise ValueError("variant must be 'main' or 'alt'")
    h0 = 4.0 * c.f0 + 6.0 * c.L * c.K * c.sigma_sq
    i0 = 3.0 * c.L**2 * c.N
    if variant == "main":
        u0 = 3.0 * c.L**2 * c.N * c.G
        return h0 / math.sqrt(c.T * c.Q) + u0 / c.Q + c.sigma_sq * i0 * c.avg_theta_norm_sq
    v0 = 3.0 * c.L**2 * c.N * c.G / c.gamma_star
    return (
        h0 / math.sqrt(c.T * c.Q)
        + v0 / math.sqrt(c.Q)
        + (i0 / c.gamma_star) * c.delta_sq * c.avg_theta_norm_sq
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def emit_csv(records: list[RoundMetrics], sink) -> None:
    """Fixed-header CSV; ints as they are, floats at 17 significant digits (exact round-trip)."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow(v if isinstance(v, int) else format(v, ".17g") for v in astuple(r))


def emit_jsonl(records: list[RoundMetrics], sink) -> None:
    for r in records:
        sink.write(json.dumps(asdict(r)) + "\n")
