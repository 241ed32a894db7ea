"""Pruning-mask generation, quartile policies, codenames, and noise measurement.

Every family ranks units, splits the ranking into four quartile segments
S1..S4 (S1 = strongest-ranked; `quartile_segments` decides the split) and
keeps the segments a policy names:
  WP - units are the first-layer weights, ranked by magnitude
  NP - units are the hidden neurons of a one-hidden-layer MLP, ranked by the
       L1 norm of their incoming weights; pruning a neuron drops its
       incoming weights, its bias and its outgoing weights
  FS - fixed sub-network: the NP units in natural order (params-independent)
Parameters that belong to no unit are kept by every mask. Masks are written
from the layer layout: no index set over the parameters is built.

Codename digits 1-7 pick the kept segments per participation slot. An
optional freeze round turns any family into a pre-trained-mask scheme: the
mask computed at that round is reused for all later rounds (`round_masks`).
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# Ranking and masks
# ---------------------------------------------------------------------------


def quartile_segments(ranking) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a ranking into S1..S4; sizes differ by at most one, largest first."""
    ranking = np.asarray(ranking)
    if len(ranking) < 4:
        raise ValueError("ranking must have at least 4 entries")
    s1, s2, s3, s4 = np.array_split(ranking, 4)
    return s1, s2, s3, s4


def _ranked_segments(strength: np.ndarray) -> tuple[np.ndarray, ...]:
    """S1..S4 of units ranked by descending `strength`, ties to the lower index.

    Each segment holds its unit indices in ascending order. The segments are
    the `quartile_segments` of that ranking, found by selection instead of a
    sort: `np.partition` gives the strength at each segment boundary, units
    above it lie before the boundary, and of the units tied with it the
    lowest indices fill the places left.
    """
    n = len(strength)
    ends = np.cumsum([len(s) for s in quartile_segments(np.arange(n))])[:3]
    key = -strength  # ascending key: the strongest unit first
    cuts = np.partition(key, ends - 1)[ends - 1]
    before = np.zeros(n, dtype=bool)  # units ranked before the previous boundary
    segments = []
    for end, cut in zip(ends, cuts):
        first = key < cut
        tied = np.flatnonzero(key == cut)
        first[tied[: end - np.count_nonzero(first)]] = True
        segments.append(np.flatnonzero(first & ~before))
        before = first
    segments.append(np.flatnonzero(~before))
    return tuple(segments)


def segment_index_sets(params: ParamVector, family: str) -> tuple[np.ndarray, ...]:
    """S1..S4 as arrays of unit indices, each in ascending unit order.

    Units are positions inside W1 for WP and hidden-neuron ids for NP/FS.
    WP ranks by |weight|, NP by the L1 norm of a neuron's incoming weights,
    both descending with ties to the lower unit index; FS keeps the natural
    order.
    """
    layout = params.layout
    w1 = params.values[layout.offsets[0].weights]
    if family == "WP":
        return _ranked_segments(np.abs(w1))
    if family not in ("NP", "FS"):
        raise ValueError(f"unknown family {family!r}")
    # neuron pruning on deeper nets has no unambiguous reading
    if len(layout.layer_sizes) != 3:
        raise ValueError("neuron-structured pruning needs exactly one hidden layer")
    d_in, hidden, _ = layout.layer_sizes
    if hidden < 4:
        raise ValueError("need at least 4 neurons to form quartiles")
    if family == "FS":
        return quartile_segments(np.arange(hidden))
    return _ranked_segments(np.abs(w1.reshape(d_in, hidden)).sum(axis=0))


def _unit_mask(layout: LayerLayout, family: str, keep: np.ndarray) -> Mask:
    """Mask that prunes the units whose entry in the 0/1 vector `keep` is 0.

    A WP unit is one W1 entry. An NP/FS unit is hidden neuron j: column j of
    W1 (in, h), entry j of b1 and row j of W2 (h, out). Every other
    parameter is kept.
    """
    bits = np.ones(layout.total, dtype=np.uint8)
    if family == "WP":
        bits[layout.offsets[0].weights] = keep
    else:
        (w1, b1), (w2, _) = layout.unpack(bits)
        w1[...] = keep
        b1[...] = keep
        w2[...] = keep[:, None]
    return Mask(bits)


def round_masks(
    policies: tuple[PruningPolicy, ...],
    params: ParamVector,
    round_no: int,
    frozen: dict[int, Mask],
) -> tuple[list[Mask], dict[int, Mask]]:
    """Every slot's mask for one round, and the frozen masks after it.

    `frozen` maps slot -> mask and is left as it is. A slot whose policy
    freezes after round F reuses its frozen mask in every round after F; in
    round F, or the first later round in which it has none, its fresh mask is
    recorded. All other masks come from the live parameters: all slots prune
    the same global model, so the ranking runs at most once per family and
    not at all when every slot reuses its frozen mask, and slots that keep
    the same segments of the same family get the same `Mask` object.
    """
    frozen = dict(frozen)
    segments: dict[str, tuple[np.ndarray, ...]] = {}
    fresh: dict[tuple[str, frozenset[int]], Mask] = {}
    masks = []
    for k, policy in enumerate(policies):
        freeze = policy.freeze_after_round
        if freeze is not None and round_no > freeze and k in frozen:
            masks.append(frozen[k])
            continue
        key = (policy.family, policy.kept_segments)
        if key not in fresh:
            if policy.family not in segments:
                segments[policy.family] = segment_index_sets(params, policy.family)
            units = segments[policy.family]
            keep = np.zeros(sum(map(len, units)), dtype=np.uint8)
            for s in policy.kept_segments:
                keep[units[s - 1]] = 1
            fresh[key] = _unit_mask(params.layout, policy.family, keep)
        mask = fresh[key]
        if freeze is not None and round_no >= freeze:
            frozen.setdefault(k, mask)
        masks.append(mask)
    return masks, frozen


def distinct(masks: list[Mask]) -> dict[int, Mask]:
    """The distinct mask objects among `masks`, keyed by `id`, in first-use order.

    `round_masks` hands one object to all slots of one policy, so per-mask
    work done once per distinct object serves every slot that shares it.
    """
    return {id(mask): mask for mask in masks}


def apply_mask(params: ParamVector, mask: Mask, out: np.ndarray | None = None) -> ParamVector:
    """Element-wise product; for finite values pruned coordinates become exactly +0.0.

    The masked vector is written into `out` (shape (total,)) when one is
    given, else into a new array. Adding +0.0 after the product turns the
    -0.0 of a pruned negative value (and a kept -0.0) into +0.0 and leaves
    every other value as it is.
    """
    if len(mask) != params.layout.total:
        raise ValueError("mask length does not match parameter vector")
    if out is None:
        out = np.empty(params.layout.total)
    np.multiply(params.values, mask.bits, out=out)
    out += 0.0
    return ParamVector(out, params.layout)


def pruning_noise(params: ParamVector, masks: list[Mask]) -> tuple[float, ...]:
    """Relative energy each mask discards: ||t - t*m||^2 / ||t||^2, in [0, 1].

    ||t||^2 is computed once for all masks, and each distinct mask object's
    share once for all slots that hold it.
    """
    if any(len(mask) != params.layout.total for mask in masks):
        raise ValueError("mask length does not match parameter vector")
    total = float(params.values @ params.values)
    if total == 0.0:
        warnings.warn("pruning_noise of a zero-norm parameter vector is defined as 0")
        return tuple(0.0 for _ in masks)
    noise = {}
    for key, mask in distinct(masks).items():
        dropped = params.values[mask.bits == 0]
        noise[key] = float(dropped @ dropped) / total
    return tuple(noise[id(mask)] for mask in masks)


def codename_coverage(codename: str) -> tuple[dict[int, int], int]:
    """Per-quartile coverage counts for a codename and their minimum.

    Parameters outside every unit are kept by every slot, so the minimum
    over S1..S4 is the minimum coverage index of the whole model.
    """
    counts = {s: 0 for s in (1, 2, 3, 4)}
    for policy in parse_codename(codename):
        for s in policy.kept_segments:
            counts[s] += 1
    return counts, min(counts.values())


def parse_codename(
    codename: str, family: str = "WP", freeze_after_round: int | None = None
) -> tuple[PruningPolicy, ...]:
    """Digit string -> one pruning policy per participation slot.

    The digit fixes the kept quartile segments; family and freeze schedule
    come from the run configuration.
    """
    if not codename:
        raise ValueError("codename must be non-empty")
    bad = sorted(set(codename) - set(DIGIT_SEGMENTS))
    if bad:
        raise ValueError(f"codename may only contain digits 1-7, got {bad}")
    return tuple(PruningPolicy(family, DIGIT_SEGMENTS[d], freeze_after_round) for d in codename)
