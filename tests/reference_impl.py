"""Straight-line reference implementations used as oracles by the tests."""

import numpy as np

from fedprune.federation import local_rng, model_layout, sample_rng
from fedprune.nn import Batch, ParamVector, init_params, loss_and_grad


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
                        ParamVector(values, layout),
                        Batch(shard.inputs[idx], shard.labels[idx]),
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
            _, grad = loss_and_grad(
                ParamVector(values, layout), Batch(shard.inputs[idx], shard.labels[idx])
            )
            g = grad * bits
            buf = coef * buf + g
            values = values - lr * buf
    return values


def brute_force_aggregate(prev, local_values, bits):
    """Per-index 'mean over covering slots' definition of the global update."""
    out = prev.copy()
    for i in range(len(prev)):
        covering = [s for s in range(len(local_values)) if bits[s, i]]
        if covering:
            out[i] = sum(local_values[s][i] for s in covering) / len(covering)
    return out


def brute_force_signatures(bits):
    """Per-index coverage signatures straight from the mask bits."""
    n_slots, n_params = bits.shape
    return [
        frozenset(int(s) for s in range(n_slots) if bits[s, i]) for i in range(n_params)
    ]
