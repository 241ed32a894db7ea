"""Pruning-mask generation and noise measurement.

Every family ranks units, splits the ranking into the four quartile
segments S1..S4 of `spec.segment_sizes` (S1 = strongest-ranked) and keeps
the segments a codename digit names (`spec.DIGIT_SEGMENTS`). A ranking is
one segment label per unit (`segment_index_sets`: 0 for S1 ... 3 for S4):
  WP - units are the first-layer weights, ranked by magnitude
  NP - units are the hidden neurons of a one-hidden-layer MLP, ranked by the
       L1 norm of their incoming weights; pruning a neuron drops its
       incoming weights, its bias and its outgoing weights
  FS - fixed sub-network: the NP units in natural order (params-independent)
Parameters that belong to no unit are kept by every mask. One writer,
`segment_fill`, writes a value per segment over the layer layout, each
unit's value one lookup of its label in a four-entry table, with no index
set over the units or the parameters: a mask is its 0/1 case, and the
round's coverage counts are the codename's per-segment coverage written the
same way.

The family is one for the whole run, so a round has one mask per distinct
codename digit: `round_masks` writes them from the round's one ranking and
returns them keyed by digit. A mask is a plain read-only uint8 0/1 vector
over the parameters (1 = trainable), which `apply_mask` and `pruning_noise`
take as it is. The run-level freeze round lives in the round engine, which
freezes the ranking.
"""

from __future__ import annotations

import warnings

import numpy as np

from .nn import ParamVector
from .spec import DIGIT_SEGMENTS, LayerLayout, check_layout, segment_sizes
from .spec import codename_coverage  # noqa: F401  (perfbench imports it from here)


def _ranked_segments(strength: np.ndarray) -> np.ndarray:
    """Each unit's segment (0 for S1 ... 3 for S4) when ranked by descending `strength`.

    Ties go to the lower unit index. The segments are the `segment_sizes`
    split of that ranking, found by selection instead of a sort:
    `np.partition` gives the strength at each segment boundary, units above
    it lie before the boundary, and of the units tied with it the lowest
    indices fill the places left. Every unit starts in S4 and moves up one
    segment for each boundary it lies before.
    """
    n = len(strength)
    ends = np.cumsum(segment_sizes(n))[:3]
    key = -strength  # ascending key: the strongest unit first
    cuts = np.partition(key, ends - 1)[ends - 1]
    labels = np.full(n, 3, dtype=np.uint8)
    for end, cut in zip(ends, cuts):
        first = key < cut
        tied = np.flatnonzero(key == cut)
        first[tied[: end - np.count_nonzero(first)]] = True
        labels -= first
    return labels


def segment_index_sets(params: ParamVector, family: str) -> np.ndarray:
    """Each unit's segment: one uint8 per unit, 0 for S1 ... 3 for S4.

    Units are positions inside W1 for WP and hidden-neuron ids for NP/FS.
    WP ranks by |weight|, NP by the L1 norm of a neuron's incoming weights,
    both descending with ties to the lower unit index; FS keeps the natural
    order. S1..S4 take `segment_sizes` units of the ranking, in turn.
    """
    layout = params.layout
    check_layout(family, layout.layer_sizes[1:-1], layout.offsets[0].weight_len)
    w1 = params.values[layout.offsets[0].weights]
    if family == "WP":
        return _ranked_segments(np.abs(w1))
    d_in, hidden, _ = layout.layer_sizes
    if family == "FS":
        return np.repeat(np.arange(4, dtype=np.uint8), segment_sizes(hidden))
    return _ranked_segments(np.abs(w1.reshape(d_in, hidden)).sum(axis=0))


def segment_fill(
    layout: LayerLayout, family: str, units: np.ndarray, per_segment, out: np.ndarray
) -> np.ndarray:
    """Write `per_segment[s]` over the units labelled s in `units` into `out`; returns `out`.

    `units` holds each unit's segment, as `segment_index_sets` gives it, so
    a unit's value is one lookup in the four-entry `per_segment`. A WP unit
    is one W1 entry. An NP/FS unit is hidden neuron j: column j of W1
    (in, h), entry j of b1 and row j of W2 (h, out). Entries outside every
    unit keep their value: a mask is the 0/1 case over ones, the coverage
    counts the slots keeping each segment over the slot count.
    """
    per_unit = np.asarray(per_segment, dtype=out.dtype).take(units)
    if family == "WP":
        out[layout.offsets[0].weights] = per_unit
    else:
        (w1, b1), (w2, _) = layout.unpack(out)
        w1[...] = per_unit
        b1[...] = per_unit
        w2[...] = per_unit[:, None]
    return out


def round_masks(codename: str, family: str, layout: LayerLayout, units: np.ndarray) -> dict[str, np.ndarray]:
    """One mask per distinct codename digit, keyed by digit, in first-use order.

    All slots prune the same global model under one family, so one ranking
    (`units`, one segment label per unit) serves every slot, and slot k's
    mask is `masks[codename[k]]`: a read-only uint8 0/1 vector of shape
    (total,), 1 = trainable. Several slots read one mask, so none may
    write into it.
    """
    masks = {}
    for d in dict.fromkeys(codename):
        kept = [int(s in DIGIT_SEGMENTS[d]) for s in (1, 2, 3, 4)]
        masks[d] = segment_fill(layout, family, units, kept, np.ones(layout.total, dtype=np.uint8))
        masks[d].flags.writeable = False
    return masks


def apply_mask(params: ParamVector, bits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise product with a 0/1 mask; for finite values pruned coordinates become exactly +0.0.

    `bits` has shape (total,). Returns the masked values, written into `out`
    (shape (total,)) when one is given, else into a new array. Adding +0.0
    after the product turns the -0.0 of a pruned negative value (and a kept
    -0.0) into +0.0 and leaves every other value as it is.
    """
    if np.shape(bits) != (params.layout.total,):
        raise ValueError("mask length does not match parameter vector")
    out = np.multiply(params.values, bits, out=out)
    out += 0.0
    return out


def pruning_noise(params: ParamVector, masks: list[np.ndarray]) -> tuple[float, ...]:
    """Relative energy each 0/1 mask discards: ||t - t*m||^2 / ||t||^2, in [0, 1].

    ||t||^2 is computed once for all masks; the round engine passes each
    distinct mask once.
    """
    if any(np.shape(bits) != (params.layout.total,) for bits in masks):
        raise ValueError("mask length does not match parameter vector")
    total = float(params.values @ params.values)
    if total == 0.0:
        warnings.warn("pruning_noise of a zero-norm parameter vector is defined as 0")
        return tuple(0.0 for _ in masks)
    dropped = (params.values[bits == 0] for bits in masks)
    return tuple(float(d @ d) / total for d in dropped)
