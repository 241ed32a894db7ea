"""Randomized self-checks of the numerical core against brute-force oracles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .federation import aggregate
from .nn import ParamVector, loss_and_grad, masked_sgd_step
from .pruning import apply_mask, segment_fill
from .spec import DIGIT_SEGMENTS, FAMILIES, LayerLayout, codename_coverage, segment_sizes


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


def _unit_of(layout: LayerLayout, family: str, i: int) -> int | None:
    """The unit that holds parameter i, or None: a W1 entry for WP, a hidden neuron for NP/FS."""
    w1, w2 = layout.offsets[0], layout.offsets[-1]
    if family == "WP":
        return i if i < w1.weight_len else None
    _, hidden, d_out = layout.layer_sizes
    if i < w1.bias_start:
        return i % hidden  # W1 is (in, h): column j
    if i < w2.weight_start:
        return i - w1.bias_start
    if i < w2.bias_start:
        return (i - w2.weight_start) // d_out  # W2 is (h, out): row j
    return None


def coverage_check(rng: np.random.Generator, runs: int = 200) -> CheckResult:
    """The engine's coverage counts (`segment_fill`) vs a per-index count of covering slots.

    Random layouts, families, codenames and segment labellings. Slot k
    covers a parameter unless its unit lies in a segment that digit k drops.
    """
    for _ in range(runs):
        family = FAMILIES[int(rng.integers(len(FAMILIES)))]
        depth = int(rng.integers(1, 3)) if family == "WP" else 1
        hidden = [int(h) for h in rng.integers(4, 9, depth)]
        layout = LayerLayout((int(rng.integers(1, 5)), *hidden, int(rng.integers(1, 4))))
        n_units = layout.offsets[0].weight_len if family == "WP" else hidden[0]
        units = rng.permutation(np.repeat(np.arange(4, dtype=np.uint8), segment_sizes(n_units)))
        codename = "".join(rng.choice(list(DIGIT_SEGMENTS), int(rng.integers(1, 9))))
        segments, _ = codename_coverage(codename)
        counts = segment_fill(layout, family, units, list(segments.values()),
                              np.full(layout.total, len(codename)))
        for i in range(layout.total):
            unit = _unit_of(layout, family, i)
            s = 0 if unit is None else int(units[unit]) + 1  # 0: no unit, kept by every slot
            expected = sum(1 for d in codename if s == 0 or s in DIGIT_SEGMENTS[d])
            if counts[i] != expected:
                detail = f"{family} {layout.layer_sizes} {codename}, index {i}: count {counts[i]}"
                return CheckResult("coverage_oracle", False, f"{detail} != {expected}")
    return CheckResult("coverage_oracle", True, f"{runs} random instances")


def aggregation_check(rng: np.random.Generator, runs: int = 200) -> CheckResult:
    """aggregate vs the per-index 'mean over covering slots' loop.

    The local models are +0.0 off their masks (`apply_mask`), as training
    leaves them, and `aggregate` gets their sum as a round builds it: added
    from +0.0, one model at a time, in ascending slot order.
    """
    for _ in range(runs):
        n_params, n_slots = int(rng.integers(2, 65)), int(rng.integers(1, 7))
        bits = rng.integers(0, 2, (n_slots, n_params), dtype=np.uint8)
        layout = LayerLayout((n_params - 1, 1))  # (n-1) weights + 1 bias: only the length matters
        prev = rng.normal(0.0, 1.0, n_params)
        locals_ = [apply_mask(ParamVector(rng.normal(0.0, 1.0, n_params), layout), row) for row in bits]
        local_sum = np.zeros(n_params)
        for row in locals_:
            np.add(local_sum, row, out=local_sum)
        got = aggregate(ParamVector(prev, layout), local_sum, bits.sum(axis=0)).values
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
        bits = rng.integers(0, 2, layout.total, dtype=np.uint8)
        values = apply_mask(ParamVector(rng.normal(0.0, 1.0, layout.total), layout), bits)
        params = ParamVector(values, layout)
        momentum = np.zeros(layout.total)
        inputs, labels = rng.normal(0.0, 1.0, (4, sizes[0])), rng.integers(0, sizes[-1], 4)
        for _ in range(10):
            _, grad = loss_and_grad(params, inputs, labels)
            masked_sgd_step(params, grad, bits, momentum, 0.5, 0.1)
            off = bits == 0
            if params.values[off].any() or momentum[off].any():
                return CheckResult("mask_closure", False, "pruned coordinate moved off zero")
    return CheckResult("mask_closure", True, f"{runs} random trajectories, 10 steps each")


def run_selfcheck(seed: int = 0) -> list[CheckResult]:
    return [
        gradient_check(np.random.default_rng([seed, 10])),
        coverage_check(np.random.default_rng([seed, 11])),
        aggregation_check(np.random.default_rng([seed, 12])),
        mask_closure_check(np.random.default_rng([seed, 13])),
    ]
