#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics of two checkouts, in alternating fresh processes.

    git worktree add ../parent REV
    python3 scripts/ab_rounds.py ../parent . --workload small_np --pairs 10

Each side's own `perfbench/child.py` runs one untraced command of a workload
from this checkout's `perfbench/workloads.py` on that side's `src/`. The
metrics are BENCHMARK.json's end-to-end ones as `perfbench/run.py` defines
them: `setup_s` spawn to first op, `op_s_p50` the median op, `run_s` spawn to
exit, `peak_rss_mb` the child's own reading. Pair i runs the parent first when
i is even. Printed: one line per pair, then per metric each side's median and
quartiles and in how many pairs the change was lower.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402  (imports neither numpy nor fedprune)

METRICS = {"setup_s": "s", "op_s_p50": "s", "run_s": "s", "peak_rss_mb": "MB"}  # BENCHMARK.json order


def one_process(checkout: Path, argv: list[str], op_span: str, record: Path) -> dict[str, float]:
    """The four metrics of one untraced command run by `checkout`'s perfbench/child.py."""
    record.unlink(missing_ok=True)
    start = time.monotonic_ns()  # the clock of the child's spans
    proc = subprocess.run([sys.executable, str(checkout / "perfbench" / "child.py"), str(record),
                           op_span, "0", "--", *argv], capture_output=True, text=True, cwd=checkout)
    run_s = (time.monotonic_ns() - start) / 1e9
    got = json.loads(record.read_text()) if record.is_file() else {}
    ops = [(begin, end) for name, begin, end, *_ in got.get("spans", []) if name == op_span]
    if proc.returncode != 0 or got.get("exit_code") != 0 or not ops:
        sys.exit(f"{checkout}: fedprune {' '.join(argv)} failed:\n{proc.stdout}{proc.stderr}")
    return {"setup_s": (ops[0][0] - start) / 1e9,
            "op_s_p50": statistics.median((end - begin) / 1e9 for begin, end in ops),
            "run_s": run_s, "peak_rss_mb": got["peak_rss_mb"]}


def quartiles(values: list[float]) -> list[float]:
    return values * 3 if len(values) == 1 else statistics.quantiles(values, n=4)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's checkout, e.g. a git worktree")
    parser.add_argument("change", type=Path, help="the change's checkout, e.g. .")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="small_np")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    workload = WORKLOADS[args.workload]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []  # per pair, each side's metrics
    with tempfile.TemporaryDirectory() as tmp:
        argv, record = list(workload.argv), Path(tmp) / "record.json"
        if workload.federated:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps({**workload.run_config(args.seed), "out_dir": f"{tmp}/out"}))
            argv = ["run", "--config", str(config)]
        for side in sides:  # untimed: each side's bytecode and the OS caches are warm for pair 0
            one_process(sides[side], argv, workload.op_span, record)
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {side: one_process(sides[side], argv, workload.op_span, record) for side in order}
            pairs.append(pair)
            print(f"pair {i}: " + ", ".join(f"{side} " + " ".join(
                f"{m} {pair[side][m]:.4g}" for m in METRICS) for side in sides), flush=True)
    for metric, unit in METRICS.items():
        parent, change = ([pair[side][metric] for pair in pairs] for side in sides)
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        wins = sum(c < p for p, c in zip(parent, change))
        print(f"{metric}: parent {p2:.4g} {unit} (Q1 {p1:.4g}, Q3 {p3:.4g}), change {c2:.4g} {unit} "
              f"(Q1 {c1:.4g}, Q3 {c3:.4g}), change lower in {wins}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
