"""Workload definitions: the fedprune command each workload runs, built from a seed.

This module imports neither numpy nor fedprune, so the runner and the child
process can pin the BLAS thread count with it before numpy is loaded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# One BLAS thread: the metrics files differ in their last bits between one and
# two threads, and two threads on a two-core machine make timings depend on
# whatever else runs there.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DEFAULT_SEED = 0


def pin_blas(env=os.environ) -> None:
    """Set the BLAS thread count; only effective before numpy is imported."""
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)


@dataclass(frozen=True)
class Workload:
    name: str
    op_span: str  # the traced span that is one op
    config: dict = field(default_factory=dict)  # run config minus the seed; empty = no run
    argv: tuple[str, ...] = ()  # fedprune arguments when there is no run config
    # expected per-row accounting; checked against fedprune.tables.computed_row too
    params_amortized: float = 0.0
    flops_amortized: float = 0.0

    @property
    def federated(self) -> bool:
        return bool(self.config)

    @property
    def samples_per_round(self) -> int:
        """Local-SGD examples per round; both partitions here give equal shards."""
        c = self.config
        train = c["synth_classes"] * c["synth_samples_per_class"]
        slots = len(c["codename"])
        return slots * c["local_epochs"] * train // c["num_clients"]

    def run_config(self, seed: int) -> dict:
        """The config the program sees: the seed picks data, partition and sampling."""
        return {**self.config, "synth_data_seed": seed, "init_seed": seed, "seeds": [seed]}


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's 784-200-10 shape under WP. Per-parameter work (region
        # decomposition, ranking, evaluation on 10k test rows) dominates a round,
        # so aggregation, ranking and evaluation changes show here.
        Workload(
            name="mnist_wp",
            op_span="federation.round",
            config={
                "codename": "1111223344",
                "family": "WP",
                "num_clients": 100,
                "participation_ratio": 0.1,
                "rounds": 2,
                "local_epochs": 5,
                "local_batch": 10,
                "learning_rate": 0.1,
                "momentum": 0.5,
                "partition": "iid",
                "hidden_layers": [200],
                "test_batch": 128,
                "dataset": "synthetic",
                "synth_classes": 10,
                "synth_samples_per_class": 600,
                "synth_dim": 784,
                "synth_spread": 1.0,
                "synth_test_samples_per_class": 1000,
            },
            params_amortized=135490.0,
            flops_amortized=135280.0,
        ),
        # Quickstart-sized 20-32-10 net under NP with label skew. Per-call Python
        # overhead of local SGD dominates, so step-kernel and batching changes show
        # here and aggregation or ranking changes should not. It also takes the NP
        # neuron-block ranking path instead of WP.
        Workload(
            name="small_np",
            op_span="federation.round",
            config={
                "codename": "1111223344",
                "family": "NP",
                "num_clients": 20,
                "participation_ratio": 0.5,
                "rounds": 30,
                "local_epochs": 5,
                "local_batch": 10,
                "learning_rate": 0.1,
                "momentum": 0.5,
                "partition": "label-skew",
                "classes_per_client": 2,
                "hidden_layers": [32],
                "dataset": "synthetic",
                "synth_classes": 10,
                "synth_samples_per_class": 100,
                "synth_dim": 20,
                "synth_spread": 0.3,
                "synth_test_samples_per_class": 50,
            },
            params_amortized=853.2,
            flops_amortized=816.0,
        ),
        # One op is one full `fedprune account --check-table` pass over all 37
        # stored rows: analytic-policy accounting with no training, so it bypasses
        # every round-engine layer. The full grid stays, WP rows' slowness included.
        Workload(
            name="account_grid",
            op_span="tables",
            argv=("account", "--check-table"),
        ),
    )
}

TABLE_ROW_COUNT = 37
