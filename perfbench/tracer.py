"""Spans around the calls into fedprune's modules, recorded from outside the program.

A name is wrapped where its caller looks it up: `federation` binds
`from .nn import loss_and_grad` at import, so the span for `nn.grad` wraps
`fedprune.federation.loss_and_grad`, not `fedprune.nn.loss_and_grad`. A target
that no longer exists is reported as absent and records no calls. The
originals are put back when the tracer exits.

A span is `[name, start_ns, end_ns, parent, op, raised, value]`: `parent` is
the index of the enclosing span (-1 at top level), `op` numbers the op span
it belongs to (0 outside any op) and `value` is a per-call measure some spans
record (regions made).
"""

from __future__ import annotations

import functools
import importlib
import time

CLOCK = time.monotonic_ns  # CLOCK_MONOTONIC: comparable across processes

# (span, module the caller looks the name up in, attribute path)
TARGETS = (
    ("cli", "fedprune.cli", "main"),
    ("cli.config", "fedprune.cli", "build_parser"),
    ("cli.config", "fedprune.cli", "load_run_config"),
    ("data.build", "fedprune.cli", "build_federated_data"),
    ("metrics.emit", "fedprune.cli", "emit_csv"),
    ("metrics.emit", "fedprune.cli", "emit_jsonl"),
    ("tables", "fedprune.cli", "check_tables"),
    ("metrics.account", "fedprune.tables", "account"),
    ("data.subset", "fedprune.data", "Dataset.subset"),
    ("federation.round", "fedprune.federation", "run_round"),
    ("federation.local", "fedprune.federation", "local_update"),
    ("federation.decompose", "fedprune.federation", "decompose_regions"),
    ("federation.aggregate", "fedprune.federation", "aggregate"),
    ("pruning.maskable", "fedprune.federation", "default_maskable_set"),
    ("pruning.maskable", "fedprune.metrics", "default_maskable_set"),
    ("pruning.mask", "fedprune.federation", "generate_mask"),
    ("pruning.rank", "fedprune.pruning", "segment_index_sets"),
    ("pruning.noise", "fedprune.federation", "pruning_noise"),
    ("pruning.apply", "fedprune.federation", "apply_mask"),
    ("nn.grad", "fedprune.federation", "loss_and_grad"),
    ("nn.step", "fedprune.federation", "masked_sgd_step"),
    ("nn.eval", "fedprune.federation", "evaluate"),
    ("metrics.gradnorm", "fedprune.federation", "grad_norm_estimate"),
    ("metrics.local_acc", "fedprune.federation", "weighted_accuracy"),
    ("metrics.account", "fedprune.federation", "account"),
)

# per-call measures taken from the result; None if the result has changed shape
VALUES = {"federation.decompose": lambda result: len(result.regions)}


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path inside a module, or None if gone."""
    *parents, attr = path.split(".")
    try:
        owner = importlib.import_module(module)
        for part in parents:
            owner = getattr(owner, part)
        getattr(owner, attr)
    except (ImportError, AttributeError):
        return None
    return owner, attr


class Tracer:
    """Wraps the targets on entry, restores them on exit; spans stay in memory."""

    def __init__(self, op_span: str, targets=TARGETS):
        self.op_span = op_span
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._ops = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, module, path in self.targets:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return None

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_op = name == self.op_span
        value_of = VALUES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_op:
                self._ops += 1
                op = self._ops
            else:
                op = spans[parent][4] if parent >= 0 else 0
            record = [name, 0, 0, parent, op, False, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = CLOCK()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = CLOCK()
                stack.pop()
            if value_of is not None:
                try:
                    record[6] = value_of(result)
                except (AttributeError, TypeError):
                    pass
            return result

        return wrapper
