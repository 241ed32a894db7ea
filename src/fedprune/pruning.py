"""Pruning-mask generation, quartile policies, codenames, and noise measurement.

Three mask families are supported:
  WP - per-weight magnitude ranking over a maskable index set
  NP - per-neuron ranking by L1 norm of incoming weights; pruning a neuron
       drops its incoming weights, its bias, and its outgoing weights
  FS - fixed sub-network: neurons kept in natural order (params-independent)

A policy keeps a subset of the four ranked quartile segments S1..S4
(S1 = strongest-ranked). Codename digits 1-7 pick the subset per
participation slot. An optional freeze round turns any family into a
pre-trained-mask scheme: the mask computed at that round is reused for
all later rounds.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .nn import LayerLayout, ParamVector

FAMILIES = ("WP", "NP", "FS")

# digit -> kept quartile segments (1 = full model; 2-4 drop one quartile;
# 5-7 keep two quartiles, S1 always kept)
DIGIT_SEGMENTS: dict[str, frozenset[int]] = {
    "1": frozenset({1, 2, 3, 4}),
    "2": frozenset({1, 3, 4}),
    "3": frozenset({1, 2, 4}),
    "4": frozenset({1, 2, 3}),
    "5": frozenset({1, 2}),
    "6": frozenset({1, 3}),
    "7": frozenset({1, 4}),
}


@dataclass(frozen=True)
class Mask:
    """Binary vector over parameter indices; 1 = trainable, 0 = pruned."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.ascontiguousarray(np.asarray(self.bits, dtype=np.uint8))
        if bits.ndim != 1 or bits.max(initial=0) > 1:
            raise ValueError("mask bits must be a 1-D 0/1 vector")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def sparsity(self) -> float:
        return int(self.bits.sum()) / len(self.bits)

    @classmethod
    def ones(cls, length: int) -> "Mask":
        return cls(np.ones(length, dtype=np.uint8))


@dataclass(frozen=True)
class MaskableSet:
    """Ordered parameter indices subject to ranking/pruning."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.ascontiguousarray(np.asarray(self.indices, dtype=np.int64))
        if idx.ndim != 1:
            raise ValueError("maskable indices must be 1-D")
        ordered = np.sort(idx)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("maskable indices contain duplicates")
        if len(ordered) and ordered[0] < 0:
            raise ValueError("maskable indices must be non-negative")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class PruningPolicy:
    """Mask-generation rule: family + kept quartile segments + freeze round."""

    family: str
    kept_segments: frozenset[int]
    freeze_after_round: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        kept = frozenset(int(s) for s in self.kept_segments)
        if not kept:
            raise ValueError("kept_segments must be non-empty")
        if not kept <= {1, 2, 3, 4}:
            raise ValueError("kept_segments must be a subset of {1, 2, 3, 4}")
        if self.freeze_after_round is not None and self.freeze_after_round < 1:
            raise ValueError("freeze_after_round must be >= 1")
        object.__setattr__(self, "kept_segments", kept)


@dataclass(frozen=True)
class PolicyAssignment:
    codename: str
    per_slot_policies: tuple[PruningPolicy, ...]

    def __len__(self) -> int:
        return len(self.per_slot_policies)


# ---------------------------------------------------------------------------
# Maskable sets and ranking
# ---------------------------------------------------------------------------


def first_layer_weight_indices(layout: LayerLayout) -> np.ndarray:
    sl = layout.offsets[0]
    return np.arange(sl.weight_start, sl.weight_start + sl.weight_len, dtype=np.int64)


def neuron_blocks(layout: LayerLayout) -> list[np.ndarray]:
    """Per-hidden-neuron parameter indices: incoming weights, bias, outgoing weights.

    Only defined for single-hidden-layer MLPs; neuron pruning on deeper
    nets has no unambiguous reading.
    """
    if len(layout.layer_sizes) != 3:
        raise ValueError("neuron-structured pruning needs exactly one hidden layer")
    d_in, hidden, d_out = layout.layer_sizes
    w1, w2 = layout.offsets[0], layout.offsets[1]
    blocks = []
    for j in range(hidden):
        incoming = w1.weight_start + np.arange(d_in, dtype=np.int64) * hidden + j
        bias = np.array([w1.bias_start + j], dtype=np.int64)
        outgoing = w2.weight_start + j * d_out + np.arange(d_out, dtype=np.int64)
        blocks.append(np.concatenate([incoming, bias, outgoing]))
    return blocks


@functools.cache
def default_maskable_set(layout: LayerLayout, family: str) -> MaskableSet:
    """WP prunes first-layer weight entries; NP/FS prune whole hidden neurons.

    Memoised: the result depends only on (layout, family) and is immutable,
    so every caller shares one instance.
    """
    if family == "WP":
        return MaskableSet(first_layer_weight_indices(layout))
    if family in ("NP", "FS"):
        return MaskableSet(np.concatenate(neuron_blocks(layout)))
    raise ValueError(f"unknown family {family!r}")


def _ranked_neuron_blocks(
    params: ParamVector, maskable: MaskableSet, family: str
) -> list[np.ndarray]:
    blocks = neuron_blocks(params.layout)
    member = np.zeros(params.layout.total, dtype=bool)
    member[maskable.indices] = True
    if not all(member[b].all() for b in blocks):
        raise ValueError("maskable set must cover every hidden-neuron parameter")
    if family == "FS":
        return blocks
    # NP: neurons by L1 norm of incoming weights, descending; stable sort
    # keeps ties in natural neuron order
    d_in, hidden, _ = params.layout.layer_sizes
    w1 = params.layout.offsets[0]
    incoming = params.values[w1.weights].reshape(d_in, hidden)
    norms = np.abs(incoming).sum(axis=0)
    order = np.argsort(-norms, kind="stable")
    return [blocks[j] for j in order]


def rank_maskable(params: ParamVector, maskable: MaskableSet, family: str) -> np.ndarray:
    """Flat permutation of the maskable indices in rank order.

    Ties break toward the lower original index/neuron, keeping masks
    deterministic.
    """
    if len(maskable) == 0:
        raise ValueError("maskable set is empty")
    if family == "WP":
        idx = maskable.indices
        order = np.argsort(-np.abs(params.values[idx]), kind="stable")
        return idx[order]
    if family in ("NP", "FS"):
        return np.concatenate(_ranked_neuron_blocks(params, maskable, family))
    raise ValueError(f"unknown family {family!r}")


def quartile_segments(ranking) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a ranking into S1..S4; sizes differ by at most one, largest first."""
    ranking = np.asarray(ranking)
    if len(ranking) < 4:
        raise ValueError("ranking must have at least 4 entries")
    s1, s2, s3, s4 = np.array_split(ranking, 4)
    return s1, s2, s3, s4


def segment_index_sets(
    params: ParamVector, maskable: MaskableSet, family: str
) -> tuple[np.ndarray, ...]:
    """S1..S4 as parameter-index arrays.

    For WP the quartiles split the ranked maskable indices; for NP/FS they
    split the ranked neurons and expand each quartile to its parameters.
    """
    if family == "WP":
        return quartile_segments(rank_maskable(params, maskable, family))
    blocks = _ranked_neuron_blocks(params, maskable, family)
    if len(blocks) < 4:
        raise ValueError("need at least 4 neurons to form quartiles")
    parts = np.array_split(np.arange(len(blocks)), 4)
    return tuple(np.concatenate([blocks[j] for j in part]) for part in parts)


def _reuses_frozen(policy: PruningPolicy, round_no: int, frozen: Mask | None) -> bool:
    return (
        frozen is not None
        and policy.freeze_after_round is not None
        and round_no > policy.freeze_after_round
    )


def _mask_from_segments(
    segments: tuple[np.ndarray, ...], maskable: MaskableSet, kept: frozenset[int], total: int
) -> Mask:
    bits = np.ones(total, dtype=np.uint8)
    bits[maskable.indices] = 0
    for s in kept:
        bits[segments[s - 1]] = 1
    return Mask(bits)


def generate_mask(
    policy: PruningPolicy,
    params: ParamVector,
    maskable: MaskableSet,
    round_no: int,
    frozen: Mask | None = None,
) -> Mask:
    """Mask for the current round; recomputed from the live parameters unless frozen."""
    if _reuses_frozen(policy, round_no, frozen):
        return frozen
    segments = segment_index_sets(params, maskable, policy.family)
    return _mask_from_segments(segments, maskable, policy.kept_segments, params.layout.total)


def round_masks(
    policies: tuple[PruningPolicy, ...],
    params: ParamVector,
    maskable: MaskableSet,
    round_no: int,
    frozen: dict[int, Mask],
) -> list[Mask]:
    """Every slot's mask for one round, equal to `generate_mask` slot by slot.

    All slots prune the same global model, so the ranking is computed at
    most once per family and not at all when every slot reuses its frozen
    mask (`frozen` maps slot -> mask).
    """
    segments: dict[str, tuple[np.ndarray, ...]] = {}
    masks = []
    for k, policy in enumerate(policies):
        if _reuses_frozen(policy, round_no, frozen.get(k)):
            masks.append(frozen[k])
            continue
        if policy.family not in segments:
            segments[policy.family] = segment_index_sets(params, maskable, policy.family)
        masks.append(
            _mask_from_segments(
                segments[policy.family], maskable, policy.kept_segments, params.layout.total
            )
        )
    return masks


def apply_mask(params: ParamVector, mask: Mask, out: np.ndarray | None = None) -> ParamVector:
    """Element-wise product; pruned coordinates become exactly +0.0.

    The masked vector is written into `out` (shape (total,)) when one is
    given, else into a new array.
    """
    if len(mask) != params.layout.total:
        raise ValueError("mask length does not match parameter vector")
    if out is None:
        out = np.empty(params.layout.total)
    out[...] = 0.0
    np.copyto(out, params.values, where=mask.bits.view(np.bool_))
    return ParamVector(out, params.layout)


def pruning_noise(params: ParamVector, masks: list[Mask]) -> tuple[float, ...]:
    """Relative energy each mask discards: ||t - t*m||^2 / ||t||^2, in [0, 1].

    ||t||^2 is computed once for all masks.
    """
    if any(len(mask) != params.layout.total for mask in masks):
        raise ValueError("mask length does not match parameter vector")
    total = float(params.values @ params.values)
    if total == 0.0:
        warnings.warn("pruning_noise of a zero-norm parameter vector is defined as 0")
        return tuple(0.0 for _ in masks)
    noise = []
    for mask in masks:
        dropped = params.values[mask.bits == 0]
        noise.append(float(dropped @ dropped) / total)
    return tuple(noise)


def codename_coverage(codename: str) -> tuple[dict[int, int], int]:
    """Per-quartile coverage counts for a codename and their minimum.

    Non-maskable parameters are kept by every slot, so the minimum over
    S1..S4 is the minimum coverage index of the whole model.
    """
    assignment = parse_codename(codename)
    counts = {s: 0 for s in (1, 2, 3, 4)}
    for policy in assignment.per_slot_policies:
        for s in policy.kept_segments:
            counts[s] += 1
    return counts, min(counts.values())


def parse_codename(
    codename: str, family: str = "WP", freeze_after_round: int | None = None
) -> PolicyAssignment:
    """Digit string -> one pruning policy per participation slot.

    The digit fixes the kept quartile segments; family and freeze schedule
    come from the run configuration.
    """
    if not codename:
        raise ValueError("codename must be non-empty")
    bad = sorted(set(codename) - set(DIGIT_SEGMENTS))
    if bad:
        raise ValueError(f"codename may only contain digits 1-7, got {bad}")
    policies = tuple(
        PruningPolicy(family, DIGIT_SEGMENTS[d], freeze_after_round) for d in codename
    )
    return PolicyAssignment(codename, policies)
