"""Benchmark of fedprune's round engine and accounting grid.

    python3 perfbench/run.py --workload mnist_wp --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 40

Every op runs inside a real `fedprune run` or `fedprune account --check-table`
command, each started as its own process (perfbench/child.py) with BLAS
pinned to one thread. Commands repeat until `--seconds` is used up. Every
command's output is checked; a failed check counts as a failed op and makes
the exit code 1. The last line of stdout is one JSON object: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

With `--trace 1` untraced and traced commands alternate: the traced ones wrap
the calls into each module (tracer.py) and give the per-layer figures, the
untraced ones the base of `trace_overhead_ratio`. Only per-process timing is
used: no hardware counters, no system-wide tracing, no cache dropping. The
program is single-process and nothing in it waits on a queue, so no wait time
exists to report.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import CLOCK  # noqa: E402
from workloads import (  # noqa: E402
    BLAS_THREADS,
    DEFAULT_SEED,
    ROOT,
    SRC,
    TABLE_ROW_COUNT,
    WORKLOADS,
    Workload,
    pin_blas,
)

CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
WORK = HERE / ".work"
COMMAND_TIMEOUT_S = 120

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {"setup_s": "s", "op_s_p50": "s", "run_s": "s", "peak_rss_mb": "MB"}
# printed with the end-to-end metrics but not in the result line: a workload
# without training has no samples or accuracy, a run of fewer than 11 ops has
# no tail, and a ratio that reads 0 on every good run cannot carry a bound
REPORTED = {"op_s_tail": "s", "train_samples_per_s": "samples/s",
            "final_acc_global": "fraction", "failed_ops_ratio": "ratio"}

# per-layer spans measured per op; the rest (setup and write-out) per command
PER_OP_TIMES = (
    "data.subset", "pruning.mask", "pruning.maskable", "pruning.noise", "pruning.apply",
    "nn.grad", "nn.step", "nn.eval", "federation.decompose", "federation.aggregate",
    "federation.local", "federation.local_self", "federation.round_self",
    "metrics.gradnorm", "metrics.local_acc", "metrics.account", "tables.self",
)
PER_COMMAND_TIMES = ("data.build", "metrics.emit", "cli.config", "cli.self")
# spans that every workload calls; only these are reported in seconds in the
# result line, the others as shares, because a layer a workload bypasses would
# read exactly 0 s on every run
ALWAYS_CALLED = ("pruning.maskable", "metrics.account", "cli.config", "cli.self")
CALLS = {"pruning.rank_calls": "pruning.rank", "pruning.maskable_calls": "pruning.maskable",
         "nn.grad_calls": "nn.grad", "nn.step_calls": "nn.step",
         "metrics.account_calls": "metrics.account"}
LAYERS = ("data", "pruning", "nn", "federation", "metrics", "tables", "cli")


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in PER_OP_TIMES + PER_COMMAND_TIMES:
        if span in ALWAYS_CALLED:
            units[f"{span}_s"] = "s"
        units[f"{span}_share"] = "fraction"
    units.update({name: "count" for name in CALLS})
    units["federation.regions"] = "count"
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units["trace_overhead_ratio"] = "ratio"
    return units


PER_LAYER = per_layer_units()


# ---------------------------------------------------------------------------
# One command
# ---------------------------------------------------------------------------


@dataclass
class Command:
    traced: bool
    planned_ops: int
    wall_s: float = 0.0
    setup_s: float | None = None
    ops_s: list[float] = field(default_factory=list)
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    csv: bytes = b""
    jsonl: bytes = b""
    rows: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    failed_ops: int = 0

    def fail(self, problem: str, ops: int | None = None) -> None:
        self.problems.append(problem)
        self.failed_ops = min(self.planned_ops, self.failed_ops + (ops or self.planned_ops))


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        pin_blas(self.env)
        self.expected = self.expected_row() if workload.federated else None

    def _spawn(self, argv: list[str], op_span: str, traced: bool):
        self.count += 1
        record = self.work / f"cmd{self.count}.json"
        cmd = [sys.executable, str(CHILD), str(record), op_span, "1" if traced else "0",
               "--", *argv]
        start = CLOCK()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=self.env,
                                  timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return start, None, None
        return start, proc, (json.loads(record.read_text()) if record.is_file() else None)

    def warm_up(self) -> None:
        """Load the package once, so the first timed command does not compile bytecode."""
        self._spawn(["coverage", "--codename", "1111111111"], "none", False)

    def command(self, traced: bool) -> Command:
        w = self.workload
        out_dir = self.work / f"out{self.count + 1}"
        if w.federated:
            config = self.work / f"config{self.count + 1}.json"
            config.write_text(json.dumps({**w.run_config(self.seed), "out_dir": str(out_dir)}))
            argv = ["run", "--config", str(config)]
        else:
            argv = list(w.argv)
        cmd = Command(traced, w.config.get("rounds", 1))
        start, proc, record = self._spawn(argv, w.op_span, traced)
        cmd.wall_s = (CLOCK() - start) / 1e9
        if proc is None:
            cmd.fail(f"command timed out after {COMMAND_TIMEOUT_S} s")
            return cmd
        if proc.returncode != 0 or record is None:
            tail = proc.stderr.strip().splitlines()[-3:]
            cmd.fail(f"child exited {proc.returncode}: {' | '.join(tail)}")
            return cmd
        cmd.spans, cmd.absent = record["spans"], record["absent"]
        cmd.peak_rss_mb = record["peak_rss_mb"]
        ops = [s for s in cmd.spans if s[0] == w.op_span]
        cmd.ops_s = [(s[2] - s[1]) / 1e9 for s in ops]
        if ops:
            cmd.setup_s = (ops[0][1] - start) / 1e9
        if record["exit_code"] != 0:
            cmd.fail(f"fedprune exited {record['exit_code']}: {proc.stderr.strip()[-300:]}")
        elif w.federated:
            self.check_run(cmd, out_dir)
        elif f"table check passed: {TABLE_ROW_COUNT} stored rows match" not in proc.stdout:
            cmd.fail(f"table check did not pass: {proc.stdout.strip()[-300:]}")
        return cmd

    # -- output checks -----------------------------------------------------

    def expected_row(self) -> dict:
        from fedprune.metrics import CSV_HEADER
        from fedprune.nn import LayerLayout
        from fedprune.pruning import codename_coverage
        from fedprune.tables import computed_row

        c = self.workload.config
        layout = LayerLayout((c["synth_dim"], *c["hidden_layers"], c["synth_classes"]))
        amt, _ = computed_row(c["family"], c["codename"], layout)
        return {"header": CSV_HEADER, "gamma_min": codename_coverage(c["codename"])[1],
                "params_amortized": amt.params_mean, "flops_amortized": amt.flops_mean}

    def check_run(self, cmd: Command, out_dir: Path) -> None:
        w, expected = self.workload, self.expected
        csv_path = out_dir / f"metrics_seed{self.seed}.csv"
        jsonl_path = out_dir / f"metrics_seed{self.seed}.jsonl"
        if not (csv_path.is_file() and jsonl_path.is_file() and (out_dir / "summary.json").is_file()):
            cmd.fail(f"missing output files in {out_dir}")
            return
        cmd.csv, cmd.jsonl = csv_path.read_bytes(), jsonl_path.read_bytes()
        reader = csv.DictReader(io.StringIO(cmd.csv.decode()))
        if reader.fieldnames != expected["header"]:
            cmd.fail(f"CSV header {reader.fieldnames}")
            return
        cmd.rows = [{k: float(v) for k, v in row.items()} for row in reader]
        json_rows = [json.loads(line) for line in cmd.jsonl.decode().splitlines()]
        if len(cmd.rows) != cmd.planned_ops or len(json_rows) != cmd.planned_ops:
            cmd.fail(f"{len(cmd.rows)} CSV rows, {len(json_rows)} JSONL rows, "
                     f"{cmd.planned_ops} rounds")
            return
        for q, (row, json_row) in enumerate(zip(cmd.rows, json_rows), start=1):
            bad = [k for k, v in row.items() if not math.isfinite(v)]
            bad += [k for k in ("gamma_min", "params_amortized", "flops_amortized")
                    if row[k] != expected[k]]
            bad += [k for k in ("params_amortized", "flops_amortized")
                    if row[k] != getattr(w, k)]
            if row["round"] != q:
                bad.append("round")
            if json_row != {k: (int(v) if k in ("round", "gamma_min") else v)
                            for k, v in row.items()}:
                bad.append("jsonl")
            if bad:
                cmd.fail(f"round {q}: bad {sorted(set(bad))}", ops=1)

    def check_bytes(self, commands: list[Command]) -> None:
        """Same bytes from every command of the seed; stored bytes for the default seed."""
        done = [c for c in commands if c.csv]
        if not done:
            return
        digests = {"csv": hashlib.sha256(done[0].csv).hexdigest(),
                   "jsonl": hashlib.sha256(done[0].jsonl).hexdigest()}
        source = "the first command"
        if self.seed == DEFAULT_SEED:
            stored = json.loads(REFERENCE.read_text())["sha256"]
            want = stored.get(str(BLAS_THREADS), {}).get(self.workload.name)
            if want is None:
                for c in done:
                    c.fail(f"no stored digests for {BLAS_THREADS} BLAS thread(s)")
                return
            digests, source = want, "the stored digest"
        for c in done:
            for kind in ("csv", "jsonl"):
                if hashlib.sha256(getattr(c, kind)).hexdigest() != digests[kind]:
                    c.fail(f"{kind} bytes differ from {source}")

    # -- the run -------------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> list[Command]:
        """Commands until `seconds` is used up (trace: alternate, at least one of each)."""
        self.warm_up()
        start = CLOCK()
        commands: list[Command] = []
        while True:
            commands.append(self.command(traced=trace and len(commands) % 2 == 1))
            if commands[-1].wall_s >= COMMAND_TIMEOUT_S:
                break
            elapsed = (CLOCK() - start) / 1e9
            typical = statistics.median(c.wall_s for c in commands)
            if elapsed + typical / 2 >= seconds and (not trace or len(commands) >= 2):
                break
        self.check_bytes(commands)
        return commands


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(ops: list[float]) -> tuple[float, int] | None:
    """Highest percentile with at least ten ops beyond it: (value, percentile)."""
    n = len(ops)
    if n < 11:
        return None
    return sorted(ops)[n - 11], math.floor(100 * (n - 10) / n)


def end_to_end(workload: Workload, commands: list[Command]) -> tuple[dict, dict]:
    ops = [d for c in commands for d in c.ops_s]
    metrics = {
        "setup_s": statistics.median(c.setup_s for c in commands if c.setup_s is not None),
        "op_s_p50": statistics.median(ops),
        "run_s": statistics.median(c.wall_s for c in commands),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in commands),
    }
    reported: dict = {}
    found = tail(ops)
    if found:
        reported["op_s_tail"] = found[0]
        reported["op_s_tail_percentile"] = found[1]
    reported["ops"] = len(ops)
    if workload.federated:
        reported["train_samples_per_s"] = workload.samples_per_round * len(ops) / sum(ops)
        rows = next((c.rows for c in commands if c.rows), None)
        if rows:
            reported["final_acc_global"] = rows[-1]["acc_global"]
    return metrics, reported


def layer_totals(commands: list[Command], op_span: str) -> dict:
    """Busy and self nanoseconds, calls, values and errors per span over the commands."""
    busy, self_ns, calls, values = {}, {}, {}, {}
    errors = dict.fromkeys(LAYERS, 0)
    ops = op_ns = cmd_ns = 0
    for c in commands:
        spans = c.spans
        children = [0] * len(spans)
        for name, start, end, parent, _, raised, value in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent, _, raised, value) in enumerate(spans):
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + duration - children[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:  # not nested in a span of the same name
                busy[name] = busy.get(name, 0) + duration
            if value is not None:
                values[name] = values.get(name, 0) + value
            errors[name.split(".")[0]] += raised
            if name == op_span:
                ops += 1
                op_ns += duration
            elif name == "cli":
                cmd_ns += duration
    return {"busy": busy, "self": self_ns, "calls": calls, "values": values, "errors": errors,
            "ops": ops, "op_ns": op_ns, "cmd_ns": cmd_ns, "commands": len(commands)}


def per_layer(workload: Workload, commands: list[Command]) -> tuple[dict, dict]:
    """(result-line metrics, full report) from the traced commands."""
    traced = [c for c in commands if c.traced]
    t = layer_totals(traced, workload.op_span)
    ops, cmds = max(t["ops"], 1), max(t["commands"], 1)
    seconds = {
        "federation.local_self": t["self"].get("federation.local", 0),
        "federation.round_self": t["self"].get("federation.round", 0),
        "tables.self": t["self"].get("tables", 0),
        "cli.self": t["self"].get("cli", 0),
    }
    report, metrics = {}, {}
    for span in PER_OP_TIMES + PER_COMMAND_TIMES:
        ns = seconds.get(span, t["busy"].get(span, 0))
        per_op = span in PER_OP_TIMES
        report[f"{span}_s"] = ns / 1e9 / (ops if per_op else cmds)
        base = t["op_ns"] if per_op else t["cmd_ns"]
        report[f"{span}_share"] = ns / base if base else 0.0
    for name, span in CALLS.items():
        report[name] = t["calls"].get(span, 0) / ops
    report["federation.regions"] = t["values"].get("federation.decompose", 0) / ops
    for layer, n in t["errors"].items():
        report[f"{layer}.errors"] = n
    untraced_ops = [d for c in commands if not c.traced for d in c.ops_s]
    traced_ops = [d for c in traced for d in c.ops_s]
    if untraced_ops and traced_ops:
        report["trace_overhead_ratio"] = (
            statistics.median(traced_ops) / statistics.median(untraced_ops) - 1.0)
    for name in PER_LAYER:
        if name in report:
            metrics[name] = report[name]
    return metrics, report


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return PER_LAYER.get(name, "count")


def provenance() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None  # a checkout without git history
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git": sha, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "cpu_count": os.cpu_count()}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def number(value) -> int | float:
    return int(value) if isinstance(value, float) and value.is_integer() else value


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        commands = Bench(workload, seed, work).measure(seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c.planned_ops for c in commands)
    failed = sum(c.failed_ops for c in commands)
    print(f"== {name} seed {seed}: {len(commands)} commands, {attempted} ops, "
          f"{json.dumps(provenance())}")
    for c in commands:
        for problem in c.problems:
            print(f"FAILED CHECK{' (traced)' if c.traced else ''}: {problem}")
    absent = sorted({a for c in commands for a in c.absent})
    if absent:
        print(f"absent trace targets (0 calls): {', '.join(absent)}")

    units = {**END_TO_END, **REPORTED}
    if all(c.ops_s for c in commands):
        if trace:
            metrics, report = per_layer(workload, commands)
            units = PER_LAYER
            for key, value in report.items():
                print(f"  {key:<32} {value:.6g} {layer_unit(key)}")
            print("  wait time: none exists; one process, no queues")
        else:
            metrics, reported = end_to_end(workload, commands)
            for key, value in {**metrics, **reported}.items():
                print(f"  {key:<32} {value:.6g} {units.get(key, '')}")
    else:  # a command that ran no op leaves nothing to time
        metrics = {}
    ratio = failed / attempted
    print(f"  {'failed_ops_ratio':<32} {ratio:.6g} ratio")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": number(v), "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload, one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fedprune" / "cli.py").is_file():
        print(f"error: fedprune sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_blas()  # this process imports numpy for the expected values
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.all else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
