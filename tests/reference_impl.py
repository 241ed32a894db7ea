"""Straight-line reference implementations used as oracles by the tests."""

import numpy as np

from fedprune.federation import local_rng, model_layout, sample_rng
from fedprune.metrics import RoundMetrics, account, amortized, full_account
from fedprune.nn import ParamVector, init_params, loss_and_grad
from fedprune.spec import DIGIT_SEGMENTS, codename_coverage, parse_codename


def reference_fedavg_rounds(config, data, rounds):
    """Plain FedAvg: no masks, no regions; shares only the RNG stream derivation."""
    layout = model_layout(config, data)
    theta = init_params(layout, config.init_seed)
    lr = config.effective_learning_rate
    history = []
    for q in range(1, rounds + 1):
        chosen = sample_rng(config.seed, q).choice(
            config.num_clients, size=config.slots_per_round, replace=False
        )
        client_results = []
        for k, client in enumerate(int(c) for c in chosen):
            shard = data.train.subset(data.shards[client])
            rng = local_rng(config.seed, q, k)
            values = theta.values.copy()
            for _ in range(config.local_epochs):
                order = rng.permutation(len(shard))
                for s in range(0, len(shard), config.local_batch):
                    idx = order[s : s + config.local_batch]
                    _, grad = loss_and_grad(
                        ParamVector(values, layout), shard.inputs[idx], shard.labels[idx]
                    )
                    values = values - lr * grad
            client_results.append(values)
        acc = np.zeros(layout.total)
        for values in client_results:
            acc += values
        theta = ParamVector(acc / len(client_results), layout)
        history.append(theta.values.copy())
    return history


def reference_local_update(global_params, bits, shard, config, rng):
    """Masked SGD with momentum written straight out, with fresh vectors every step."""
    layout = global_params.layout
    lr, coef = config.effective_learning_rate, config.momentum
    values = np.where(bits != 0, global_params.values, 0.0)
    buf = np.zeros(layout.total)
    for _ in range(config.local_epochs):
        order = rng.permutation(len(shard))
        for s in range(0, len(shard), config.local_batch):
            idx = order[s : s + config.local_batch]
            _, grad = loss_and_grad(ParamVector(values, layout), shard.inputs[idx], shard.labels[idx])
            g = grad * bits
            buf = coef * buf + g
            values = values - lr * buf
    return values


def brute_force_signatures(bits):
    """Per-index coverage signatures straight from the mask bits."""
    n_slots, n_params = bits.shape
    return [
        frozenset(int(s) for s in range(n_slots) if bits[s, i]) for i in range(n_params)
    ]


def _reference_forward(params, inputs):
    """Per-layer pre-activations and activations: z_l = a_{l-1} @ W_l + b_l, ReLU between."""
    layers = params.layout.unpack(params.values)
    acts, pre = [inputs], []
    for l, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if l < len(layers) - 1 else z)
    return layers, pre, acts


def _reference_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def reference_evaluate(params, dataset, batch_size=128):
    """(mean loss, accuracy) as a chunked sum of per-row losses and argmax hits."""
    inputs = np.asarray(dataset.inputs, dtype=np.float64)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    n = len(labels)
    total_loss = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        x, y = inputs[start : start + batch_size], labels[start : start + batch_size]
        logits = _reference_forward(params, x)[2][-1]
        logp = _reference_log_softmax(logits)
        total_loss += float(-logp[np.arange(len(y)), y].sum())
        correct += int((logits.argmax(axis=1) == y).sum())
    return total_loss / n, correct / n


def reference_dataset_loss_and_grad(params, inputs, labels, batch_size=128):
    """Full-dataset mean loss and gradient: per-chunk backprop, scaled by chunk size, summed."""
    layout = params.layout
    n = len(labels)
    total_loss = 0.0
    total_grad = np.zeros(layout.total)
    for start in range(0, n, batch_size):
        x, y = inputs[start : start + batch_size], labels[start : start + batch_size]
        m = len(y)
        layers, pre, acts = _reference_forward(params, x)
        logp = _reference_log_softmax(acts[-1])
        total_loss += float(-logp[np.arange(m), y].mean()) * m
        grad = np.empty(layout.total)
        delta = np.exp(logp)
        delta[np.arange(m), y] -= 1.0
        delta /= m
        for l in range(len(layers) - 1, -1, -1):
            w, _ = layers[l]
            sl = layout.offsets[l]
            grad[sl.weights] = (acts[l].T @ delta).ravel()
            grad[sl.biases] = delta.sum(axis=0)
            if l > 0:
                delta = delta @ w.T
                delta[pre[l - 1] <= 0.0] = 0.0
        grad *= m
        total_grad += grad
    return total_loss / n, total_grad / n


def reference_neuron_blocks(layout):
    """Per-hidden-neuron flat parameter indices: incoming weights, bias, outgoing weights."""
    d_in, hidden, d_out = layout.layer_sizes
    w1, w2 = layout.offsets[0], layout.offsets[1]
    return [
        np.concatenate([
            w1.weight_start + np.arange(d_in) * hidden + j,
            [w1.bias_start + j],
            w2.weight_start + j * d_out + np.arange(d_out),
        ])
        for j in range(hidden)
    ]


def reference_segments(params, family):
    """(S1..S4 as flat parameter-index arrays, the index set they partition)."""
    layout = params.layout
    if family == "WP":
        w1 = layout.offsets[0]
        maskable = np.arange(w1.weight_start, w1.weight_start + w1.weight_len)
        ranked = maskable[np.argsort(-np.abs(params.values[maskable]), kind="stable")]
        return np.array_split(ranked, 4), maskable
    blocks = reference_neuron_blocks(layout)
    if family == "NP":
        d_in, hidden, _ = layout.layer_sizes
        incoming = params.values[layout.offsets[0].weights].reshape(d_in, hidden)
        order = np.argsort(-np.abs(incoming).sum(axis=0), kind="stable")
        blocks = [blocks[j] for j in order]
    parts = np.array_split(np.arange(len(blocks)), 4)
    segments = [np.concatenate([blocks[j] for j in part]) for part in parts]
    return segments, np.concatenate(blocks)


def reference_masks(codename, family, freeze, params, round_no, frozen):
    """One slot at a time: (masks, frozen masks after the round) from flat index sets.

    Slot k keeps the segments of digit `codename[k]` under `family`; `frozen`
    maps slot -> mask. A slot reuses its frozen mask after the freeze round F
    and records its fresh mask from round F on if it has none.
    """
    frozen = dict(frozen)
    masks = []
    for k, digit in enumerate(codename):
        if k in frozen and freeze is not None and round_no > freeze:
            masks.append(frozen[k])
            continue
        segments, maskable = reference_segments(params, family)
        bits = np.ones(params.layout.total, dtype=np.uint8)
        bits[maskable] = 0
        for s in DIGIT_SEGMENTS[digit]:
            bits[segments[s - 1]] = 1
        if freeze is not None and round_no >= freeze and k not in frozen:
            frozen[k] = bits
        masks.append(bits)
    return masks, frozen


def reference_computed_row(family, codename, layout):
    """`tables.computed_row` one slot at a time: an `account` call per slot."""
    per_slot = [account(layout, family, kept) for kept in parse_codename(codename)]
    amt = amortized(per_slot, full_account(layout))
    _, gamma_min = codename_coverage(codename)
    return amt, gamma_min


def coverage_counts(masks, holders):
    """Number of slots whose mask covers each parameter index, summed from the masks.

    `masks` are distinct masks and `holders[i]` is how many slots hold
    `masks[i]`; each mask is added once, times its holder count.
    """
    if not masks:
        raise ValueError("need at least one mask")
    if len(holders) != len(masks):
        raise ValueError("one holder count per mask required")
    length = len(masks[0])
    if any(len(m) != length for m in masks):
        raise ValueError("masks differ in length")
    counts = np.zeros(length, dtype=np.int64)
    for mask, n in zip(masks, holders):
        counts += np.int64(n) * mask
    return counts


def reference_run(config, data):
    """`federation.run` written straight out: one slot at a time, no lanes, no lockstep.

    Each round ranks the global model afresh for every slot (`reference_masks`,
    frozen from round F on), trains each slot alone from its masked copy
    (`reference_local_update`), and sets every parameter to the mean of the
    covering slots' values, adding them in slot order; a parameter no slot
    covers keeps its value. Loss, accuracy and gradient come from
    `reference_evaluate` and `reference_dataset_loss_and_grad`, each slot's
    local accuracy from `reference_evaluate` on its own shard, and gamma_min
    and the cost from `reference_computed_row`. Returns the round records.
    """
    layout = model_layout(config, data)
    theta = init_params(layout, config.init_seed)
    cost, gamma_min = reference_computed_row(config.family, config.codename, layout)
    n_slots = config.slots_per_round
    frozen = {}
    history = []
    for q in range(1, config.rounds + 1):
        if config.static_slots:
            participants = list(range(n_slots))
        else:
            participants = [int(c) for c in sample_rng(config.seed, q).choice(
                config.num_clients, size=n_slots, replace=False)]
        masks, frozen = reference_masks(
            config.codename, config.family, config.freeze_after_round, theta, q, frozen
        )
        norm_sq = float(theta.values @ theta.values)
        deltas = []
        covered_sum = np.zeros(layout.total)
        local_acc = 0.0
        for k, (client, mask) in enumerate(zip(participants, masks)):
            dropped = theta.values[mask == 0]
            deltas.append(float(dropped @ dropped) / norm_sq)
            shard = data.train.subset(data.shards[client])
            values = reference_local_update(theta, mask, shard, config, local_rng(config.seed, q, k))
            kept = mask != 0
            covered_sum[kept] += values[kept]
            _, acc = reference_evaluate(ParamVector(values, layout), shard, config.test_batch)
            local_acc += (1.0 / n_slots) * acc
        counts = np.stack(masks).sum(axis=0, dtype=np.int64)
        covered = counts > 0
        new_values = theta.values.copy()
        new_values[covered] = covered_sum[covered] / counts[covered]
        theta = ParamVector(new_values, layout)
        loss, acc = reference_evaluate(theta, data.test, config.test_batch)
        _, grad = reference_dataset_loss_and_grad(
            theta, data.test.inputs, data.test.labels, config.test_batch
        )
        history.append(RoundMetrics(
            round=q,
            loss=loss,
            acc_global=acc,
            acc_local=local_acc,
            gamma_min=gamma_min,
            delta_sq_mean=float(np.mean(deltas)),
            grad_norm_sq=float(grad @ grad),
            params_amortized=cost.params_mean,
            flops_amortized=cost.flops_mean,
        ))
    return history
