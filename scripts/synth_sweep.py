#!/usr/bin/env python3
"""Sweep codenames on the synthetic benchmark and tabulate cost vs accuracy.

Produces one row per codename: coverage index, amortized parameter/FLOP
cost, and mean/std final accuracy over seeds. Mirrors the benchmark-grid
layout so desk-scale trends are easy to eyeball:

    python scripts/synth_sweep.py --rounds 20 --seeds 1,2,3 --out runs/sweep.csv
"""

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fedprune.federation import FederationConfig, SynthSpec, build_federated_data, model_layout, run
from fedprune.tables import computed_row

DEFAULT_CODENAMES = [
    "1111111111",
    "1111114444",
    "1111223344",
    "1111234567",
    "1111444444",
    "1111556677",
    "1234556677",
    "2233445677",
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--codenames", default=",".join(DEFAULT_CODENAMES))
    parser.add_argument("--family", default="WP", choices=("WP", "NP", "FS"))
    parser.add_argument("--partition", default="label-skew", choices=("iid", "label-skew"))
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--spread", type=float, default=1.0)
    parser.add_argument("--out", default="runs/synth_sweep.csv")
    args = parser.parse_args()

    seeds = [int(s) for s in args.seeds.split(",")]
    rows = []
    for codename in args.codenames.split(","):
        start = time.time()
        finals = []
        for seed in seeds:
            config = FederationConfig(
                codename=codename, num_clients=100, participation_ratio=0.1,
                rounds=args.rounds, local_epochs=5, local_batch=10,
                learning_rate=0.1, momentum=0.5, family=args.family,
                partition=args.partition, seed=seed, hidden_layers=(32,),
                dataset=SynthSpec(10, 200, 20, args.spread, 50),
            )
            data = build_federated_data(config)
            history, _ = run(config, data)
            finals.append(history[-1].global_accuracy)
        layout = model_layout(config, data)  # every seed's model has this shape
        amt, gamma = computed_row(args.family, codename, layout)
        row = {
            "codename": codename,
            "family": args.family,
            "gamma_min": gamma,
            "params_amortized": round(amt.params_mean),
            "params_ratio": amt.params_ratio,
            "flops_amortized": round(amt.flops_mean),
            "flops_ratio": amt.flops_ratio,
            "acc_mean": round(float(np.mean(finals)), 4),
            "acc_std": round(float(np.std(finals)), 4),
        }
        rows.append(row)
        print(
            f"{codename} gamma={gamma:>2} cost={row['params_ratio']:.2f} "
            f"acc={row['acc_mean']:.4f}+-{row['acc_std']:.4f} ({time.time() - start:.1f}s)"
        )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
