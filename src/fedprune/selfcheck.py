"""Randomized self-checks of the numerical core against brute-force oracles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .federation import aggregate, coverage_counts
from .nn import LayerLayout, OptimizerState, ParamVector, loss_and_grad, masked_sgd_step
from .pruning import Mask, apply_mask


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _finite_difference_grad(params: ParamVector, inputs: np.ndarray, labels: np.ndarray,
                            h: float = 1e-6) -> np.ndarray:
    grad = np.zeros(params.layout.total)
    values = params.values
    for i in range(len(values)):
        bumped = values.copy()
        bumped[i] = values[i] + h
        up, _ = loss_and_grad(ParamVector(bumped, params.layout), inputs, labels)
        bumped[i] = values[i] - h
        down, _ = loss_and_grad(ParamVector(bumped, params.layout), inputs, labels)
        grad[i] = (up - down) / (2.0 * h)
    return grad


def gradient_check(rng: np.random.Generator, runs: int = 20) -> CheckResult:
    """Backprop vs central finite differences on random small nets."""
    worst = 0.0
    for _ in range(runs):
        sizes = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4)))]
        layout = LayerLayout(tuple(sizes))
        params = ParamVector(rng.normal(0.0, 1.0, layout.total), layout)
        n = int(rng.integers(1, 6))
        inputs, labels = rng.normal(0.0, 1.0, (n, sizes[0])), rng.integers(0, sizes[-1], n)
        _, analytic = loss_and_grad(params, inputs, labels)
        numeric = _finite_difference_grad(params, inputs, labels)
        scale = max(float(np.abs(numeric).max()), 1.0)
        worst = max(worst, float(np.abs(analytic - numeric).max()) / scale)
    passed = worst < 1e-5
    return CheckResult("gradient_finite_difference", passed, f"max relative error {worst:.3g}")


def brute_force_aggregate(prev: np.ndarray, locals_: list[np.ndarray],
                          bits: np.ndarray) -> np.ndarray:
    """Per-index 'mean over covering slots' definition of the global update."""
    out = prev.copy()
    for i in range(len(prev)):
        covering = [s for s in range(len(locals_)) if bits[s, i] == 1]
        if covering:
            out[i] = sum(locals_[s][i] for s in covering) / len(covering)
    return out


def _random_instance(rng: np.random.Generator):
    n_params = int(rng.integers(2, 65))
    n_slots = int(rng.integers(1, 7))
    bits = rng.integers(0, 2, (n_slots, n_params), dtype=np.uint8)
    return n_params, n_slots, bits


def coverage_check(rng: np.random.Generator, runs: int = 200) -> CheckResult:
    """coverage_counts vs a per-index count of covering slots."""
    for _ in range(runs):
        n_params, n_slots, bits = _random_instance(rng)
        counts = coverage_counts([Mask(bits[s]) for s in range(n_slots)], [1] * n_slots)
        for i in range(n_params):
            expected = sum(1 for s in range(n_slots) if bits[s, i] == 1)
            if counts[i] != expected:
                return CheckResult(
                    "coverage_oracle", False, f"index {i}: count {counts[i]} != {expected}"
                )
    return CheckResult("coverage_oracle", True, f"{runs} random instances")


def aggregation_check(rng: np.random.Generator, runs: int = 200) -> CheckResult:
    """aggregate vs the per-index 'mean over covering slots' loop.

    The local models are +0.0 off their masks (`apply_mask`), as training leaves them.
    """
    for _ in range(runs):
        n_params, n_slots, bits = _random_instance(rng)
        layout = LayerLayout((n_params - 1, 1))  # (n-1) weights + 1 bias: only the length matters
        prev = rng.normal(0.0, 1.0, n_params)
        masks = [Mask(bits[s]) for s in range(n_slots)]
        locals_ = [
            apply_mask(ParamVector(rng.normal(0.0, 1.0, n_params), layout), mask).values
            for mask in masks
        ]
        got = aggregate(
            ParamVector(prev, layout), locals_, coverage_counts(masks, [1] * n_slots)
        ).values
        want = brute_force_aggregate(prev, locals_, bits)
        if not np.array_equal(got, want):
            return CheckResult(
                "aggregation_oracle", False,
                f"max deviation {np.abs(got - want).max():.3g}",
            )
    return CheckResult("aggregation_oracle", True, f"{runs} random instances")


def mask_closure_check(rng: np.random.Generator, runs: int = 50) -> CheckResult:
    """Masked-out coordinates stay bitwise zero through SGD sequences."""
    for _ in range(runs):
        sizes = (int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        layout = LayerLayout(sizes)
        mask = Mask(rng.integers(0, 2, layout.total, dtype=np.uint8))
        params = apply_mask(ParamVector(rng.normal(0.0, 1.0, layout.total), layout), mask)
        opt = OptimizerState(np.zeros(layout.total), 0.5, 0.1)
        inputs, labels = rng.normal(0.0, 1.0, (4, sizes[0])), rng.integers(0, sizes[-1], 4)
        for _ in range(10):
            _, grad = loss_and_grad(params, inputs, labels)
            masked_sgd_step(params, grad, mask.bits, opt)
            off = mask.bits == 0
            if params.values[off].any() or opt.momentum_buffer[off].any():
                return CheckResult("mask_closure", False, "pruned coordinate moved off zero")
    return CheckResult("mask_closure", True, f"{runs} random trajectories, 10 steps each")


def run_selfcheck(seed: int = 0) -> list[CheckResult]:
    results = [
        gradient_check(np.random.default_rng([seed, 10])),
        coverage_check(np.random.default_rng([seed, 11])),
        aggregation_check(np.random.default_rng([seed, 12])),
        mask_closure_check(np.random.default_rng([seed, 13])),
    ]
    return results
