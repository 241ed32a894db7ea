"""Straight-line reference implementations used as oracles by the tests."""

import numpy as np

from fedprune.federation import local_rng, model_layout, sample_rng
from fedprune.nn import ParamVector, init_params, loss_and_grad


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
