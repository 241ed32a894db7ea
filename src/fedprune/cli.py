"""Command-line front end: run, account, coverage, selfcheck.

Run configs are flat JSON. A key is a field name of `FederationConfig`,
`IdxSpec` or `RunConfig`, or `synth_` + a field name of `SynthSpec`;
`dataset` picks the spec, "synthetic" or "idx"; a key of the other spec is
an error. An int field takes an integer (not true, not 20.0), a float field
a finite number, a str field a string, a bool field true or false,
`hidden_layers` and `seeds` a list of integers, `codenames` a list of
strings, `out_dir` a non-empty string, and an `X | None` field also null.
A config error names its key; a key given twice is one. The file sets every
run parameter, and `run --out` replaces its `out_dir`.
A `codenames` config runs each codename into `out_dir/<codename>/`, as a
`codename` config runs into `out_dir`, and tabulates them in `sweep.csv`.
`run` reads the data, deals shards and judges codenames before any output.
Exit codes for `run`: 1 config error or bad dataset file, 2 coverage
violation, 3 I/O error writing outputs, 4 training diverged (a non-finite
model, test-set loss or gradient; the message names where). Every
subcommand exits 1 on a bad flag, with argparse's message.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

from .metrics import account, emit_csv, emit_jsonl
from .spec import (DIGIT_SEGMENTS, FAMILIES, FederationConfig, IdxSpec, LayerLayout, SynthSpec,
                   codename_coverage)
from .tables import MNIST_LAYOUT, TABLE_ROWS, check_tables, computed_row


@dataclass(frozen=True)
class RunConfig:
    federation: FederationConfig  # of seeds[0] and the first codename; each run replaces both
    seeds: tuple[int, ...]
    out_dir: Path
    codenames: tuple[str, ...] = ()  # () runs federation.codename alone, into out_dir


_DATASETS = {"synthetic": SynthSpec, "idx": IdxSpec}
_PREFIXES = {SynthSpec: "synth_"}
_JSON_TYPES = {
    int: "an integer", float: "a finite number", str: "a string", Path: "a non-empty string",
    bool: "true or false", tuple[int, ...]: "a list of integers", tuple[str, ...]: "a list of strings",
}
CONFIG_KEYS = {  # every accepted key -> the type of the field it sets
    _PREFIXES.get(cls, "") + name: hint
    for cls in (RunConfig, FederationConfig, *_DATASETS.values())
    for name, hint in get_type_hints(cls).items() if name != "federation"
} | {"dataset": str}  # names the spec


def json_type(hint) -> str:
    """The JSON a field of type `hint` takes, e.g. 'an integer or null'."""
    nullable = type(None) in get_args(hint)
    return _JSON_TYPES[get_args(hint)[0] if nullable else hint] + " or null" * nullable


def _parse(key: str, value):
    """`value` as the field of `key` takes it: an int widens to float, a list becomes a tuple."""
    hint = CONFIG_KEYS[key]
    nullable = type(None) in get_args(hint)
    kind = get_args(hint)[0] if nullable else hint
    if value is None and nullable:
        return None
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)  # not NaN, not infinite
    if kind in (tuple[int, ...], tuple[str, ...]) and type(value) is list and all(
            type(v) is get_args(kind)[0] for v in value):
        return tuple(value)
    if kind in (int, str, bool) and type(value) is kind or kind is Path and type(value) is str and value:
        return value  # type(), not isinstance(): true is no integer; Path("") is the cwd
    raise ValueError(f"{key} must be {json_type(hint)}, got {json.dumps(value)}")


def _make(cls, values: dict, **given):
    """`cls` from the values of its fields' keys; a required field without one is an error."""
    prefix = _PREFIXES.get(cls, "")
    kwargs = {f.name: values[prefix + f.name] for f in fields(cls) if prefix + f.name in values}
    kwargs |= given
    missing = [prefix + f.name for f in fields(cls)
               if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing required keys: {missing}")
    return cls(**kwargs)


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its pairs; a key given twice is an error, not its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {json.dumps(key)}")
        obj[key] = value
    return obj


def load_run_config(path, out_dir: str | None = None) -> RunConfig:
    raw = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    if not isinstance(raw, dict):
        raise ValueError("a run config must be a JSON object")
    for one, many in (("seed", "seeds"), ("codename", "codenames")):
        if one in raw and many in raw:
            raise ValueError(f"give {one} or {many}, not both")
    if out_dir is not None:
        raw["out_dir"] = out_dir  # --out replaces the file's value
    unknown = raw.keys() - CONFIG_KEYS.keys()
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    values = {k: _parse(k, v) for k, v in raw.items()}

    kind = values.get("dataset", "synthetic")
    if kind not in _DATASETS:
        raise ValueError(f"dataset must be 'synthetic' or 'idx', got {kind!r}")
    seeds = values["seeds"] if "seeds" in values else (values.get("seed", 0),)
    codenames = values.get("codenames", ())
    for key, items in (("seeds", seeds), ("codenames", codenames)):
        if key in values and not items:
            raise ValueError(f"{key} must list at least one {key[:-1]}, got []")
        if len(set(items)) < len(items):
            raise ValueError(f"{key} must not repeat, got {json.dumps(items)}")
    if min(seeds) < 0:
        raise ValueError(f"seeds must be non-negative, got {list(seeds)}")

    dataset = _make(_DATASETS[kind], values)
    for other in _DATASETS.keys() - {kind}:
        cls = _DATASETS[other]
        stray = sorted(values.keys() & {_PREFIXES.get(cls, "") + f.name for f in fields(cls)})
        if stray:
            raise ValueError(f"{', '.join(stray)} apply only to dataset {json.dumps(other)}")
    federations = []
    for codename in codenames:  # each entry must make a valid run on its own
        try:
            federations.append(_make(FederationConfig, values, dataset=dataset, seed=seeds[0],
                                     codename=codename))
        except ValueError as exc:
            raise ValueError(f"codenames entry {json.dumps(codename)}: {exc}") from None
    federation = federations[0] if codenames else _make(
        FederationConfig, values, dataset=dataset, seed=seeds[0])
    return RunConfig(federation, seeds, Path(values.get("out_dir", "runs")), codenames)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def build_federated_data(config: FederationConfig):
    """`federation.build_federated_data`, with the engine imported on the first call."""
    from .federation import build_federated_data

    return build_federated_data(config)


def cmd_run(args) -> int:
    try:
        config = load_run_config(args.config, args.out)
    except OSError as exc:  # missing, a directory, unreadable
        return _fail(1, f"cannot read config {args.config}: {exc.strerror or exc}")
    except ValueError as exc:  # json.JSONDecodeError included
        return _fail(1, f"bad config {args.config}: {exc}")

    import numpy as np  # numpy and the engine load only for a config that can run

    from . import federation
    from .data import IdxFormatError

    base = config.federation
    runs = [(c, config.out_dir / c) for c in config.codenames] or [(base.codename, config.out_dir)]
    # The engine names every non-finite value by round and phase, so numpy's own
    # overflow/invalid warnings would only repeat it; lanes inherit this state.
    with np.errstate(over="ignore", invalid="ignore"):
        try:  # every read and every codename's verdict, before any output exists
            built = build_federated_data(base)  # the sets once, with the shards of base.seed = seeds[0]
            data = {s: built if s == base.seed else federation.partition_clients(
                built, replace(base, seed=s)) for s in config.seeds}  # one partition per seed
            layout = federation.model_layout(base, built)
            facts = {c: federation.codename_facts(replace(base, codename=c), layout) for c, _ in runs}
        except OSError as exc:  # missing, a directory, unreadable
            problem = "not found" if isinstance(exc, FileNotFoundError) else "unreadable"
            return _fail(1, f"dataset file {problem}: {exc}")
        except IdxFormatError as exc:
            return _fail(1, f"dataset file malformed: {exc}")
        except ValueError as exc:  # a config check that needs the data
            return _fail(1, f"bad config {args.config}: {exc}")
        except federation.CoverageError as exc:
            return _fail(2, f"coverage violation: {exc}")
        except MemoryError as exc:  # the data a config asks for (numpy names the size)
            return _fail(1, f"out of memory for config {args.config}: {exc}")

        sweep = []  # a codenames config's sweep.csv rows
        try:
            for codename, out_dir in runs:
                out_dir.mkdir(parents=True, exist_ok=True)
                if config.codenames:
                    print(f"codename {codename}:")
                final_accuracies = []
                final_losses = []
                for seed in config.seeds:
                    fed = replace(base, codename=codename, seed=seed)
                    history, _ = federation.run(fed, data[seed], facts[codename])
                    csv_path = out_dir / f"metrics_seed{seed}.csv"
                    jsonl_path = out_dir / f"metrics_seed{seed}.jsonl"
                    with open(csv_path, "w") as csv_file:
                        emit_csv(history, csv_file)
                    with open(jsonl_path, "w") as jsonl_file:
                        emit_jsonl(history, jsonl_file)
                    last = history[-1]  # rounds >= 1
                    final_accuracies.append(last.acc_global)
                    final_losses.append(last.loss)
                    print(f"seed {seed}: rounds={len(history)} final_acc={last.acc_global:.4f} "
                          f"final_loss={last.loss:.4f} -> {csv_path}")
                summary = {
                    "codename": codename,
                    "family": base.family,
                    "seeds": list(config.seeds),
                    "final_accuracy_per_seed": final_accuracies,
                    "final_accuracy_mean": float(np.mean(final_accuracies)),
                    "final_accuracy_std": float(np.std(final_accuracies)),
                    "final_loss_mean": float(np.mean(final_losses)),
                }
                text = json.dumps(summary, indent=2, allow_nan=False)
                (out_dir / "summary.json").write_text(text + "\n")
                print(f"summary: mean final accuracy {summary['final_accuracy_mean']:.4f} "
                      f"(std {summary['final_accuracy_std']:.4f}) over seeds {list(config.seeds)}")
                if config.codenames:
                    sweep.append(_sweep_row(summary, facts[codename]))
            if sweep:
                sweep_path = config.out_dir / "sweep.csv"
                with open(sweep_path, "w", newline="") as sweep_file:
                    writer = csv.DictWriter(sweep_file, fieldnames=list(sweep[0]))
                    writer.writeheader()
                    writer.writerows(sweep)
                print(f"sweep: {len(sweep)} codenames -> {sweep_path}")
        except FloatingPointError as exc:
            return _fail(4, f"training diverged: {exc}")
        except MemoryError as exc:  # the model a config asks for, made at a seed's first run
            return _fail(1, f"out of memory for config {args.config}: {exc}")
        except OSError as exc:  # writing the outputs
            return _fail(3, f"I/O failure: {exc}")
        return 0


def _fail(code: int, message: str) -> int:
    """Print `message` as an error line on stderr; return the exit `code`."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _sweep_row(summary: dict, facts) -> dict:
    """A codename's sweep.csv row: gamma_min and cost from its `codename_facts`, accuracy from
    the floats of its summary."""
    return {
        "codename": summary["codename"],
        "family": summary["family"],
        "gamma_min": facts.gamma_min,
        "params_amortized": round(facts.cost.params_mean),
        "params_ratio": facts.cost.params_ratio,
        "flops_amortized": round(facts.cost.flops_mean),
        "flops_ratio": facts.cost.flops_ratio,
        "acc_mean": round(summary["final_accuracy_mean"], 4),
        "acc_std": round(summary["final_accuracy_std"], 4),
    }


def cmd_account(args) -> int:
    try:
        return _account(args)
    except ValueError as exc:
        return _fail(1, str(exc))


def _account(args) -> int:
    if args.check_table:
        given = [f"--{k}" for k in ("codename", "family", "layout") if getattr(args, k) is not None]
        if given:
            raise ValueError(f"--check-table checks the stored 784-200-10 grid and takes no other "
                             f"flag, got {' '.join(given)}")
        problems = check_tables()
        if problems:
            for p in problems:
                print(f"MISMATCH {p}")
            return 1
        print(f"table check passed: {len(TABLE_ROWS)} stored rows match")
        return 0

    layout = MNIST_LAYOUT
    if args.layout is not None:  # "" too: it is no layout, not the default one
        try:
            sizes = tuple(int(p) for p in args.layout.split(","))
        except ValueError:
            raise ValueError(f"--layout must be comma-separated integers, got {args.layout!r}") from None
        layout = LayerLayout(sizes)
    if not args.codename:
        return _fail(1, "--codename is required unless --check-table is given")
    family = args.family or "WP"
    amt, gamma = computed_row(family, args.codename, layout)  # checks codename and layout
    accounts = {d: account(layout, family, DIGIT_SEGMENTS[d]) for d in dict.fromkeys(args.codename)}
    for k, digit in enumerate(args.codename):
        acct = accounts[digit]
        segments = ",".join(f"S{s}" for s in sorted(DIGIT_SEGMENTS[digit]))
        print(f"slot {k}: digit {digit} keeps {segments:<12} "
              f"params {acct.params_total:>7} flops {acct.flops_total:>7}")
    print(f"amortized: params {amt.params_mean:.0f} ({amt.params_ratio:.2f} of full) "
          f"flops {amt.flops_mean:.0f} ({amt.flops_ratio:.2f} of full)")
    print(f"gamma_min: {gamma}")
    return 0


def cmd_coverage(args) -> int:
    try:
        counts, gamma = codename_coverage(args.codename)
    except ValueError as exc:
        return _fail(1, str(exc))
    print(f"codename {args.codename} ({len(args.codename)} slots)")
    for s in (1, 2, 3, 4):
        slots = [k for k, d in enumerate(args.codename) if s in DIGIT_SEGMENTS[d]]
        print(f"  S{s}: covered by {counts[s]:>2} slots {slots}")
    print(f"gamma_min: {gamma}")
    if gamma == 0:
        print("warning: some quartile is covered by no slot; training cannot update it")
    return 0


def cmd_selfcheck(args) -> int:
    if args.seed < 0:
        return _fail(1, "--seed must be non-negative")
    from .selfcheck import run_selfcheck  # the engine loads only for the check

    results = run_selfcheck(seed=args.seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 for a usage error: `run` keeps 2 for a coverage violation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedprune",
        description="Federated learning with heterogeneous pruned client models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", help="output directory; replaces the config's out_dir")
    p_run.set_defaults(func=cmd_run)

    p_acc = sub.add_parser("account", help="parameter/FLOP accounting for a codename")
    p_acc.add_argument("--codename")
    p_acc.add_argument("--family", choices=FAMILIES, help="mask family, default WP")
    p_acc.add_argument("--layout", help="comma-separated layer sizes, default 784,200,10")
    p_acc.add_argument("--check-table", dest="check_table", action="store_true",
                       help="verify the embedded 784-200-10 grid; takes no other flag")
    p_acc.set_defaults(func=cmd_account)

    p_cov = sub.add_parser("coverage", help="per-quartile coverage for a codename")
    p_cov.add_argument("--codename", required=True)
    p_cov.set_defaults(func=cmd_coverage)

    p_check = sub.add_parser("selfcheck", help="randomized numerical self-checks")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
