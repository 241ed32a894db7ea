"""Round engine: client sampling, masked local SGD, region-wise aggregation.

Each round q (1-based):
  1. sample floor(c*N) participants; slot k follows codename digit k
  2. rank the current global model once, as one segment label per unit;
     `pruning.segment_fill` writes from it one mask per distinct codename
     digit (a read-only 0/1 vector), and the round's coverage counts. Slot k
     prunes with its digit's mask and runs T local epochs of masked SGD;
     slots with equally long shards train in lockstep, as rows of one
     (g, total) matrix
  3. set every parameter to the mean of its value over exactly the slots
     whose masks cover it: the round holds only the sum of the slots' local
     models, each +0.0 off its mask and added as it finishes, in slot order
     (see `aggregate`), and divides it by the coverage count
  4. measure the round's metrics-file row (`metrics.RoundMetrics`): test-set
     loss, accuracy and gradient, slot means of pruning noise and local accuracy
Parameters covered by no slot keep the previous global value. Every mask
keeps whole quartile segments, so the codename alone fixes how many slots
cover each segment, and with that gamma_min and the amortized cost; the
ranking only decides where each segment's units sit. `codename_facts`
works these facts out from the codename and the layout, whatever the seed,
and gives the one coverage verdict: it warns once, or raises before training.

With `freeze_after_round` F, the ranking of round F serves every later
round (a pre-trained mask): the state carries it as `frozen_ranking` from
round F on (None before), and each round writes its masks and counts from it.

Lockstep chunks train on the lanes (`fedprune.lanes`): lane j trains chunks
j, j + L, ... in place in its own row buffer, taking each chunk's rows
straight from the train set through the clients' index arrays, then counts
each row's correct predictions on its shard for the round's local accuracy;
its ordered commit hands the rows on to the round's sum.
`build_federated_data` builds the train and test set as two items on the
lanes, and `partition_clients` deals the clients a seed's train shards.
A run's `FederationConfig` and its dataset spec come from `fedprune.spec`,
checked there before any data is read.

Determinism: all randomness flows from named streams derived from
(seed, stream, round[, slot]), so the grouping of slots into lockstep
chunks, and the lane that trains a chunk, reproduce one-slot-at-a-time
results bit for bit. Per-parameter sums always run in ascending slot order
for the same reason.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import lanes, pruning
from .data import Dataset, IdxFormatError, load_idx, partition, stratified_subset, synth_blobs
from .metrics import AmortizedAccount, RoundMetrics, account, full_account, weighted_accuracy
from .nn import ParamVector, evaluate, forward, init_params, loss_and_grad, masked_sgd_step
from .pruning import apply_mask, pruning_noise, round_masks, segment_fill
from .spec import FederationConfig, IdxSpec, LayerLayout, SynthSpec, check_layout, codename_coverage
from .tables import computed_row

# named RNG streams; keep stable or recorded runs stop being reproducible
_SAMPLE_STREAM = 1
_LOCAL_STREAM = 2

# Cap on one lockstep chunk: g slots train together while g * total float64
# (one stacked array) stays within this size. Measured in microseconds per
# slot-step, 1 BLAS thread, on a 2-core Xeon VM with 2 MiB L2 per core
# (python 3.11, numpy 2.4), one slot at a time -> g = 1/2/5/10 in lockstep:
# 20-32-10 47 -> 40/24/14/11, 784-64-10 255 -> 202/195/259/244, 784-200-10
# 909 -> 808/863/1171/913. Past about 1 MiB, streaming the stacked state
# costs more than the saved per-call overhead. 1 MiB gives g = 10 at
# 20-32-10 and g = 1 at 784-200-10.
_LOCKSTEP_BYTES = 1 << 20


class CoverageError(RuntimeError):
    """A parameter was covered by zero participants."""


# ---------------------------------------------------------------------------
# Coverage and aggregation
# ---------------------------------------------------------------------------


def aggregate(previous_global: ParamVector, local_sum: np.ndarray, counts: np.ndarray) -> ParamVector:
    """Per-parameter mean over exactly the covering slots.

    `local_sum` is the sum of the slots' local models, added in ascending
    slot order from +0.0, and `counts[i]` the number of slots whose mask
    covers parameter i. Parameters no slot covers retain the previous global
    value. Precondition: each local model is zero wherever its slot's mask
    is 0, so the plain sum of the models is the sum over the covering slots.
    `local_update`'s rows keep it: `apply_mask` writes +0.0 there and
    `masked_sgd_step` masks the gradient before it enters the momentum
    buffer, so those coordinates never move; `run_round` rejects a
    non-finite row before adding it.
    """
    shape = (previous_global.layout.total,)
    if np.shape(local_sum) != shape or np.shape(counts) != shape:
        raise ValueError("the local models' sum and coverage counts must match the parameter vector")
    out = previous_global.values.copy()
    np.divide(local_sum, counts, out=out, where=counts > 0)
    return ParamVector(out, previous_global.layout)


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FederatedData:
    train: Dataset
    shards: tuple[np.ndarray, ...]
    test: Dataset


@dataclass(frozen=True)
class GlobalState:
    round: int  # completed rounds
    params: ParamVector
    frozen_ranking: np.ndarray | None  # the freeze round's segment labels; None before it


# ---------------------------------------------------------------------------
# Data and state construction
# ---------------------------------------------------------------------------


def _bytes_on_disk(path) -> int:
    """Size of `path`, or 0 if it cannot be read: the load then reports why."""
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def build_federated_data(config: FederationConfig) -> FederatedData:
    """Train and test set, and the clients' shards of the train set.

    The two sets are two items on the lanes: each comes from its own
    generator or files, and numpy's fills, casts and zlib's inflate release
    the GIL, so they build in parallel when the smaller set holds at least
    `lanes.MIN_WORK` values. For IDX files the smaller image file's size
    stands in for its values (equal for plain files, fewer when gzipped).
    An IDX test set takes the train set's class count once both are loaded,
    and a test label beyond it is an `IdxFormatError` that names both label
    files; subsets are drawn after the loads. With two lanes, a train-set error
    still wins over a test-set error. Last, the config checks that need the
    data: WP's rule on the first weight matrix, and a non-empty test set.
    The shards are `config.seed`'s; a partition error would be every seed's.
    """
    spec = config.dataset
    if isinstance(spec, SynthSpec):
        loads = [
            partial(synth_blobs, spec.classes, n, spec.dim, spec.spread, seed)
            for n, seed in ((spec.samples_per_class, spec.data_seed),
                            (spec.test_samples_per_class, spec.data_seed + 1))
        ]
        rows = spec.classes * min(spec.samples_per_class, spec.test_samples_per_class)
        values = rows * spec.dim
    else:
        loads = [partial(load_idx, spec.train_images, spec.train_labels),
                 partial(load_idx, spec.test_images, spec.test_labels)]
        # bytes on disk: a header and the pixels, or fewer when gzipped
        values = min(_bytes_on_disk(spec.train_images), _bytes_on_disk(spec.test_images))
    sets = [None, None]

    def build(i, lane):
        sets[i] = loads[i]()

    lanes.on_lanes([0, 1], build, lanes.width(values))
    train, test = sets
    if isinstance(spec, IdxSpec):
        if test.num_classes > train.num_classes:
            raise IdxFormatError(f"test labels {spec.test_labels} reach {test.num_classes} classes, "
                                 f"but train labels {spec.train_labels} have {train.num_classes}")
        test = Dataset(test.inputs, test.labels, train.num_classes)
        if spec.train_subset is not None:
            train = stratified_subset(train, spec.train_subset, spec.subset_seed)
        if spec.test_subset is not None:
            test = stratified_subset(test, spec.test_subset, spec.subset_seed + 1)
    data = partition_clients(FederatedData(train, (), test), config)
    first_weights = model_layout(config, data).offsets[0].weight_len
    check_layout(config.family, config.hidden_layers, first_weights)
    if not len(test):
        raise ValueError("the test set is empty")
    return data


def partition_clients(data: FederatedData, config: FederationConfig) -> FederatedData:
    """`data` with its clients' train shards for `config`'s partition and seed."""
    shards = partition(data.train, config.partition, config.num_clients, config.classes_per_client,
                       config.seed)
    return replace(data, shards=tuple(shards))


def model_layout(config: FederationConfig, data: FederatedData) -> LayerLayout:
    return LayerLayout((data.train.num_features, *config.hidden_layers, data.train.num_classes))


def init_state(config: FederationConfig, layout: LayerLayout) -> GlobalState:
    return GlobalState(0, init_params(layout, config.init_seed), None)


def local_rng(seed: int, round_no: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, _LOCAL_STREAM, round_no, slot])


def sample_rng(seed: int, round_no: int) -> np.random.Generator:
    return np.random.default_rng([seed, _SAMPLE_STREAM, round_no])


# ---------------------------------------------------------------------------
# Algorithm steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodenameFacts:
    """What the codename fixes on a layout, whatever the ranking and the seed."""

    segment_coverage: tuple[int, ...]  # slots that keep S1..S4
    gamma_min: int
    cost: AmortizedAccount


def codename_facts(config: FederationConfig, layout: LayerLayout) -> CodenameFacts:
    """The codename's facts on `layout`, and its one coverage verdict for every seed.

    A slot covers the segments its digit keeps, whatever the ranking, so the
    facts (the cost from `computed_row`) hold in every round. With gamma_min
    = 0 this warns once, or raises `CoverageError`; the message counts the
    parameters of the segments no digit keeps exactly, as their cost.
    """
    segments, _ = codename_coverage(config.codename)
    cost, gamma_min = computed_row(config.family, config.codename, layout)
    facts = CodenameFacts(tuple(segments.values()), gamma_min, cost)
    if gamma_min > 0:
        return facts
    kept = {s for s, n in segments.items() if n}
    never = full_account(layout).params_total - account(layout, config.family, kept).params_total
    unit = "first-layer weights" if config.family == "WP" else "hidden neurons"
    unkept = ", ".join(f"S{s}" for s, n in sorted(segments.items()) if n == 0)
    message = (
        f"some parameters are covered by no participant (gamma_min = 0): {never} parameters "
        f"are never trained; quartile segments of the {config.family} units ({unit}) "
        f"that no slot of codename {config.codename} keeps: {unkept}"
    )
    if config.uncovered_region_action == "error":
        raise CoverageError(message)
    warnings.warn(message)
    return facts


def sample_participants(state: GlobalState, config: FederationConfig) -> list[int]:
    """floor(c*N) distinct clients for the upcoming round; slot k <-> digit k."""
    m = config.slots_per_round
    if config.static_slots:
        return list(range(m))
    rng = sample_rng(config.seed, state.round + 1)
    return [int(i) for i in rng.choice(config.num_clients, size=m, replace=False)]


def local_update(
    global_params: ParamVector,
    masks: list[np.ndarray],
    train: Dataset,
    shards: list[np.ndarray],
    config: FederationConfig,
    rngs: list[np.random.Generator],
    take: Callable[[int, np.ndarray], None],
) -> np.ndarray:
    """T epochs of masked minibatch SGD for every slot, from the pruned global model.

    Slot k prunes with `masks[k]`, a 0/1 vector of shape (total,) that
    training only reads, and trains on the rows `shards[k]` of `train`.
    Each finished local model goes to `take(k, row)`, once per slot, in
    ascending slot order; `row` is a buffer the next chunk reuses, so
    `take` must not keep it. Returns an (S,) int64 array of how many
    examples of its own shard each model classifies correctly. Slots whose
    shards have the same length share one batch schedule, short last batch
    included, and train in lockstep: up to `max(1, _LOCKSTEP_BYTES // (8 *
    total))` of them at a time, as the rows of one stacked forward/backward
    pass and SGD step. Slot k draws one permutation of its shard per epoch
    from `rngs[k]`, so its row has the bits it would have if slot k trained
    alone.

    The chunks run on the lanes: lane j trains chunks j, j + L, ... in place
    in its own rows of a (lanes, chunk width, total) buffer, with momentum,
    gradient and mask buffers of the same shape, all allocated here once per
    call; each chunk's momentum starts at 0. A chunk builds its gradient
    vector once and gathers its permuted rows straight from `train` once per
    epoch, so a step is one `loss_and_grad` and one `masked_sgd_step` call on
    views: the chunk's rows, gradient, mask bits and momentum rows, with
    `config.momentum` and the effective learning rate. It then counts the
    chunk's correct predictions in slices of `config.test_batch` rows, as
    `evaluate` would for each slot alone. The ordered commit hands the
    chunk's rows to `take`. Chunks group slots by shard length, so with
    unequal lengths a chunk can finish before an earlier slot's chunk: its
    rows then wait, as copies, for their turn.
    """
    if not len(masks) == len(shards) == len(rngs):
        raise ValueError("one mask, shard and rng per slot required")
    if any(len(shard) == 0 for shard in shards):
        raise ValueError("client shard is empty")
    layout = global_params.layout
    by_length: dict[int, list[int]] = {}
    for k, shard in enumerate(shards):
        by_length.setdefault(len(shard), []).append(k)
    width = max(1, _LOCKSTEP_BYTES // (8 * layout.total))
    chunks = [
        slots[lo : lo + width] for slots in by_length.values() for lo in range(0, len(slots), width)
    ]
    step_rows = max(len(c) * min(config.local_batch, len(shards[c[0]])) for c in chunks)
    n_lanes = min(lanes.width(step_rows * layout.total), len(chunks))
    shape = (n_lanes, max(map(len, chunks)), layout.total)
    local, momentum, grad = np.empty(shape), np.empty(shape), np.empty(shape)
    bits = np.empty(shape, dtype=np.uint8)
    correct = np.zeros(len(shards), dtype=np.int64)  # one entry per slot: no lane shares one
    waiting: dict[int, np.ndarray] = {}  # finished rows whose earlier slots are not yet taken
    next_slot = 0

    def train_chunk(c: int, lane: int) -> None:
        chunk = chunks[c]
        g = len(chunk)
        rows = ParamVector(local[lane, :g], layout)
        for row, k in zip(rows.values, chunk):
            apply_mask(global_params, masks[k], out=row)
        idx = np.stack([shards[k] for k in chunk])
        n = idx.shape[1]  # one shard length: every step has one batch size for all rows
        chunk_bits = np.stack([masks[k] for k in chunk], out=bits[lane, :g])
        chunk_grad = ParamVector(grad[lane, :g], layout)
        chunk_momentum = momentum[lane, :g]
        chunk_momentum[...] = 0.0
        coef, lr = config.momentum, config.effective_learning_rate
        at = np.arange(g)[:, None]
        for _ in range(config.local_epochs):
            order = idx[at, np.stack([rngs[k].permutation(n) for k in chunk])]
            xs, ys = train.inputs[order], train.labels[order]  # each batch below is a view of these
            for start in range(0, n, config.local_batch):
                stop = start + config.local_batch
                loss_and_grad(rows, xs[:, start:stop], ys[:, start:stop], out=chunk_grad)
                masked_sgd_step(rows, chunk_grad.values, chunk_bits, chunk_momentum, coef, lr)
        del xs, ys  # the accuracy count gathers its own slices
        for start in range(0, n, config.test_batch):
            part = idx[:, start : start + config.test_batch]
            hits = forward(rows, train.inputs[part]).argmax(axis=-1) == train.labels[part]
            correct[chunk] += hits.sum(axis=-1)

    def commit(c: int, lane: int) -> None:
        nonlocal next_slot
        waiting.update(zip(chunks[c], local[lane]))
        while next_slot in waiting:
            take(next_slot, waiting.pop(next_slot))
            next_slot += 1
        for k in chunks[c]:
            if k in waiting:  # the lane reuses its rows for its next chunk
                waiting[k] = waiting[k].copy()

    lanes.on_lanes(range(len(chunks)), train_chunk, n_lanes, commit=commit)
    return correct


def run_round(
    state: GlobalState, config: FederationConfig, data: FederatedData, facts: CodenameFacts
) -> tuple[GlobalState, RoundMetrics]:
    """One full round: sample, mask, train, aggregate, measure.

    `facts` are the run's `codename_facts`: gamma_min, the amortized cost,
    and the per-segment coverage that the round's counts are written from.
    """
    q = state.round + 1
    layout = state.params.layout
    codename, family = config.codename, config.family
    participants = sample_participants(state, config)

    # every slot freezes at round F, so from then on the state holds the ranking
    units = state.frozen_ranking
    if units is None:
        units = pruning.segment_index_sets(state.params, family)
    freeze = config.freeze_after_round
    frozen = units if freeze is not None and q >= freeze else None
    masks = round_masks(codename, family, layout, units)
    n_slots = len(participants)
    counts = segment_fill(layout, family, units, facts.segment_coverage,
                          np.full(layout.total, n_slots, dtype=np.min_scalar_type(n_slots)))
    del units  # training need not hold the ranking; a freeze keeps it as `frozen`
    slot_masks = [masks[d] for d in codename]
    noise = dict(zip(masks, pruning_noise(state.params, list(masks.values()))))
    delta_sq_mean = float(np.mean([noise[d] for d in codename]))

    shards = [data.shards[client] for client in participants]
    rngs = [local_rng(config.seed, q, k) for k in range(n_slots)]
    local_sum = np.zeros(layout.total)

    def take(k: int, row: np.ndarray) -> None:  # called in ascending slot order
        if not np.isfinite(row).all():
            raise FloatingPointError(
                f"round {q}: non-finite local model after local training in slot {k} "
                f"(client {participants[k]})"
            )
        np.add(local_sum, row, out=local_sum)

    correct = local_update(state.params, slot_masks, data.train, shards, config, rngs, take)
    new_params = aggregate(state.params, local_sum, counts)  # counts cast to float64 exactly
    del local_sum, counts  # the test-set pass need not hold them
    if not np.isfinite(new_params.values).all():
        raise FloatingPointError(f"round {q}: non-finite global parameters after aggregation")

    # one pass over the test set gives loss, accuracy and the full-batch gradient
    loss, acc, grad = evaluate(new_params, data.test, batch_size=config.test_batch)
    grad_norm_sq = float(grad @ grad)
    if not (np.isfinite(loss) and np.isfinite(grad_norm_sq)):
        raise FloatingPointError(
            f"round {q}: non-finite test-set loss or gradient of the aggregated model "
            f"(loss {loss}, squared gradient norm {grad_norm_sq})"
        )
    local_acc = weighted_accuracy(list(zip(correct.tolist(), map(len, shards))))
    new_state = GlobalState(q, new_params, frozen)
    record = RoundMetrics(
        round=q,
        loss=loss,
        acc_global=acc,
        acc_local=local_acc,
        gamma_min=facts.gamma_min,
        delta_sq_mean=delta_sq_mean,
        grad_norm_sq=grad_norm_sq,
        params_amortized=facts.cost.params_mean,
        flops_amortized=facts.cost.flops_mean,
    )
    return new_state, record


def run(
    config: FederationConfig, data: FederatedData, facts: CodenameFacts | None = None
) -> tuple[list[RoundMetrics], ParamVector]:
    """Q rounds from a fresh model on `data`'s shards; deterministic for a given config and seed.

    A caller that has judged the codename passes its `codename_facts`; else
    they and the coverage verdict come first, once, whatever Q: an "error"
    run with an unkept segment trains nothing, a "warn" run warns once.
    """
    layout = model_layout(config, data)
    facts = facts or codename_facts(config, layout)
    state = init_state(config, layout)
    history: list[RoundMetrics] = []
    for _ in range(config.rounds):
        state, record = run_round(state, config, data, facts)
        history.append(record)
    return history, state.params
