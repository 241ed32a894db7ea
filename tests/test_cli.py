import csv
import importlib.util
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from reference_impl import reference_computed_row

import fedprune.cli
import fedprune.selfcheck
import fedprune.tables
from fedprune.cli import CONFIG_KEYS, json_type, load_run_config, main
from fedprune.federation import FederationConfig, IdxSpec, SynthSpec
from fedprune.metrics import account
from fedprune.nn import LayerLayout
from fedprune.spec import DIGIT_SEGMENTS, parse_codename
from fedprune.tables import MNIST_LAYOUT, TABLE_ROWS

ROOT = Path(__file__).resolve().parents[1]

QUICK_CONFIG = {
    "codename": "1111223344",
    "family": "WP",
    "num_clients": 20,
    "participation_ratio": 0.5,
    "rounds": 2,
    "local_epochs": 2,
    "local_batch": 10,
    "learning_rate": 0.1,
    "momentum": 0.5,
    "partition": "iid",
    "hidden_layers": [16],
    "dataset": "synthetic",
    "synth_classes": 10,
    "synth_samples_per_class": 20,
    "synth_dim": 20,
    "synth_spread": 0.3,
    "synth_test_samples_per_class": 10,
    "seeds": [1],
}


# QUICK_CONFIG for IDX files: no synth_* keys, which apply only to the synthetic dataset
IDX_CONFIG = {k: v for k, v in QUICK_CONFIG.items() if not k.startswith("synth_")}


ABSENT = object()  # an override that takes its key out of the config


def write_config(tmp_path, base=QUICK_CONFIG, **overrides):
    cfg = {k: v for k, v in {**base, **overrides}.items() if v is not ABSENT}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


QUICKSTART = json.loads((ROOT / "configs" / "quickstart.json").read_text())


# ---------------------------------------------------------------------------
# account / coverage
# ---------------------------------------------------------------------------


def test_account_reference_wp_row(capsys):
    assert main(["account", "--codename", "1111223344", "--family", "WP"]) == 0
    out = capsys.readouterr().out
    assert "params 135490" in out.replace("  ", " ") or "135490" in out
    assert "135280" in out
    assert "gamma_min: 8" in out


def test_account_full_model_any_family(capsys):
    for family in ("WP", "NP", "FS"):
        assert main(["account", "--codename", "1111111111", "--family", family]) == 0
        out = capsys.readouterr().out
        assert "159010" in out and "158800" in out and "gamma_min: 10" in out


def test_account_np_row(capsys):
    assert main(["account", "--codename", "1111114444", "--family", "NP"]) == 0
    out = capsys.readouterr().out
    assert "143110" in out and "142920" in out and "gamma_min: 6" in out


@pytest.mark.parametrize("family, layout, message", [
    ("NP", "5,3,2", "family NP needs exactly one hidden layer of at least 4 neurons, got [3]"),
    ("FS", "5,8,4,2", "family FS needs exactly one hidden layer of at least 4 neurons, got [8, 4]"),
    ("WP", "1,2", "family WP needs at least 4 entries in the first layer's weight matrix, got 2"),
])
def test_account_names_the_family_and_layer_a_layout_lacks(capsys, family, layout, message):
    assert main(["account", "--codename", "12", "--family", family, "--layout", layout]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_account_check_table_full_grid(capsys, monkeypatch):
    # the account_grid benchmark op is this one check_tables call, and perfbench checks this line
    calls = []
    check_tables = fedprune.cli.check_tables
    monkeypatch.setattr(fedprune.cli, "check_tables", lambda *a: calls.append(a) or check_tables(*a))
    assert main(["account", "--check-table"]) == 0
    assert capsys.readouterr().out == "table check passed: 37 stored rows match\n"
    assert calls == [()]


@pytest.mark.parametrize("flags", [
    ["--codename", "1111556677"],
    ["--family", "NP"],
    ["--layout", "784,200,10"],
    ["--codename", "1234567777", "--family", "FS"],
], ids=["codename", "family", "layout", "codename-family"])
def test_check_table_takes_no_other_flag(capsys, monkeypatch, flags):
    def no_check():
        raise AssertionError("the grid was checked")

    monkeypatch.setattr(fedprune.cli, "check_tables", no_check)
    assert main(["account", "--check-table", *flags]) == 1
    captured = capsys.readouterr()
    given = " ".join(f for f in flags if f.startswith("--"))
    assert captured.err == ("error: --check-table checks the stored 784-200-10 grid and takes no "
                            f"other flag, got {given}\n")
    assert captured.out == ""


COST_LINE = "WP 1111556677: computed (111970, 111760) != stored (111971, 111760)"
GAMMA_LINE = "WP 1111556677: computed gamma_min 6 != stored 7"


@pytest.mark.parametrize("altered, lines", [
    ({"params": 111971}, [COST_LINE]),
    ({"gamma_min": 7}, [GAMMA_LINE]),
    ({"params": 111971, "gamma_min": 7}, [COST_LINE, GAMMA_LINE]),
], ids=["params", "gamma_min", "both"])
def test_check_table_prints_one_mismatch_line_per_differing_column(capsys, monkeypatch, altered,
                                                                   lines):
    rows = tuple(replace(r, **altered) if (r.family, r.codename) == ("WP", "1111556677") else r
                 for r in TABLE_ROWS)
    monkeypatch.setattr(fedprune.tables, "TABLE_ROWS", rows)
    assert main(["account", "--check-table"]) == 1
    assert capsys.readouterr().out == "".join(f"MISMATCH {line}\n" for line in lines)


def test_account_rejects_bad_codename(capsys):
    assert main(["account", "--codename", "1119"]) == 1


def test_account_output_is_deterministic(capsys):
    main(["account", "--codename", "1234556677", "--family", "NP"])
    first = capsys.readouterr().out
    main(["account", "--codename", "1234556677", "--family", "NP"])
    assert capsys.readouterr().out == first


def test_coverage_reports_segments(capsys):
    assert main(["coverage", "--codename", "1111444444"]) == 0
    out = capsys.readouterr().out
    assert "gamma_min: 4" in out
    assert "S4" in out


def test_coverage_flags_uncovered(capsys):
    assert main(["coverage", "--codename", "4444444444"]) == 0
    out = capsys.readouterr().out
    assert "gamma_min: 0" in out
    assert "warning" in out.lower()


@pytest.mark.parametrize("argv", [
    ["run", "--config", "configs/quickstart.json", "--out", ""],
    ["account", "--layout", "784,x"],
    ["account", "--layout", "0,5"],
    ["account", "--family", "NP", "--layout", "20,32,16,10", "--codename", "1111223344"],
    ["account", "--family", "NP", "--layout", "20,32,16,10", "--check-table"],
    ["account", "--family", "NP", "--layout", "20,32,16,10", "--check-table",
     "--codename", "1111223344"],
    ["account", "--codename", "1111223344", "--layout", ""],
    ["account", "--family", "NP"],
    ["coverage", "--codename", "12x"],
])
def test_malformed_input_is_an_error_not_a_crash(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("flag", [["--rounds", "2"], ["--family", "ZZ"]], ids=["rounds", "family"])
def test_a_bad_run_flag_exits_1_with_the_argparse_message(tmp_path, capsys, flag):
    # a run parameter is a config key, not a flag; 2 is the exit code of a coverage violation
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", "configs/quickstart.json", "--out", str(out), *flag])
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: fedprune ")
    assert captured.err.endswith(f"fedprune: error: unrecognized arguments: {' '.join(flag)}\n")
    assert captured.out == ""
    assert not out.exists()


def test_run_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--help", "--config", "--out"}


def test_readme_commands_parse():
    """Every `fedprune` command in the README's code blocks is one the parser takes."""
    blocks = (ROOT / "README.md").read_text().split("```")[1::2]
    commands = [line for block in blocks for line in block.splitlines() if line.startswith("fedprune ")]
    assert len(commands) >= 8
    parser = fedprune.cli.build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line, comments=True)[1:])  # SystemExit on a bad flag


@pytest.mark.parametrize("layout", [None, "20,32,10"])
def test_account_codename_prints_what_the_per_slot_path_printed(capsys, layout):
    # one `account` per slot, then `amortized` and `codename_coverage`, written out
    sizes = MNIST_LAYOUT if layout is None else LayerLayout((20, 32, 10))
    for row in TABLE_ROWS:
        want = []
        for k, kept in enumerate(parse_codename(row.codename)):
            acct = account(sizes, row.family, kept)
            segments = ",".join(f"S{s}" for s in sorted(kept))
            want.append(f"slot {k}: digit {row.codename[k]} keeps {segments:<12} "
                        f"params {acct.params_total:>7} flops {acct.flops_total:>7}")
        amt, gamma = reference_computed_row(row.family, row.codename, sizes)
        want.append(f"amortized: params {amt.params_mean:.0f} ({amt.params_ratio:.2f} of full) "
                    f"flops {amt.flops_mean:.0f} ({amt.flops_ratio:.2f} of full)")
        want.append(f"gamma_min: {gamma}")
        argv = ["account", "--codename", row.codename, "--family", row.family]
        assert main(argv + (["--layout", layout] if layout else [])) == 0
        assert capsys.readouterr().out == "\n".join(want) + "\n", (row.family, row.codename)


def test_account_codename_accounts_each_distinct_digit_once(capsys, monkeypatch):
    calls, rows = [], []
    for module in (fedprune.cli, fedprune.tables):
        monkeypatch.setattr(module, "account",
                            lambda *a, where=module.__name__: calls.append((where, a[2])) or account(*a))
    computed_row = fedprune.cli.computed_row
    monkeypatch.setattr(fedprune.cli, "computed_row", lambda *a: rows.append(a) or computed_row(*a))
    assert main(["account", "--codename", "1111223344", "--family", "NP"]) == 0
    assert capsys.readouterr().out.count("slot ") == 10
    # the per-slot lines: one account per distinct digit; the summary: one computed_row
    assert [kept for where, kept in calls if where == "fedprune.cli"] == [DIGIT_SEGMENTS[d] for d in "1234"]
    assert rows == [("NP", "1111223344", MNIST_LAYOUT)]
    assert [kept for where, kept in calls if where == "fedprune.tables"] == [DIGIT_SEGMENTS[d] for d in "1234"]


def test_account_coverage_and_a_bad_run_config_never_load_numpy_or_the_engine(tmp_path):
    """The analytic commands are arithmetic on the layout and the codename, and `run` judges its
    config before it imports the engine: none of them pays for importing numpy."""
    malformed, bad_value = tmp_path / "malformed.json", tmp_path / "bad_value.json"
    malformed.write_text("{not json")
    bad_value.write_text(json.dumps({**QUICK_CONFIG, "rounds": -1}))
    script = f"""
import sys
from fedprune.cli import main
engine = {{"numpy", "fedprune.lanes", "fedprune.federation"}}
assert not engine & sys.modules.keys(), "importing fedprune.cli"
for argv, code in (
    (["account", "--check-table"], 0),
    (["account", "--codename", "1111223344", "--family", "NP"], 0),
    (["coverage", "--codename", "1111223344"], 0),
    (["run", "--config", {str(malformed)!r}], 1),
    (["run", "--config", {str(bad_value)!r}], 1),
):
    assert main(argv) == code, argv
    assert not engine & sys.modules.keys(), (argv, sorted(engine & sys.modules.keys()))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert "table check passed: 37 stored rows match" in proc.stdout
    assert proc.stderr.count("error: bad config") == 2, proc.stderr


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_missing_config_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 1
    assert str(missing) in capsys.readouterr().err


def test_run_on_a_config_directory_is_a_config_error_not_a_traceback(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: cannot read config {tmp_path}: Is a directory\n"
    assert not (tmp_path / "out").exists()


def test_run_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 1


def test_run_rejects_unknown_keys(tmp_path, capsys):
    path = write_config(tmp_path, bogus_key=1)
    assert main(["run", "--config", str(path)]) == 1
    assert "bogus_key" in capsys.readouterr().err


def test_run_rejects_removed_loss_split_key(tmp_path, capsys):
    path = write_config(tmp_path, loss_split="test")
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "unknown config keys" in err and "loss_split" in err


# (overrides of QUICK_CONFIG, what stderr must name): a type error names its key
BAD_CONFIGS = {
    "test-batch-0": ({"test_batch": 0}, "test_batch"),
    "local-epochs-0": ({"local_epochs": 0}, "local_epochs must be >= 1, got 0"),
    "local-batch-0": ({"local_batch": 0}, "local_batch must be >= 1, got 0"),
    "rounds-negative": ({"rounds": -1}, "rounds must be >= 1, got -1"),
    "hidden-0": ({"hidden_layers": [0]}, "hidden layer sizes must be positive"),
    "hidden-negative": ({"hidden_layers": [16, -2]}, "hidden layer sizes must be positive"),
    "classes-per-client-0": (
        {"partition": "label-skew", "classes_per_client": 0}, "classes_per_client"),
    "synth-dim-below-classes": ({"synth_dim": 5}, "synth_dim must be >= synth_classes, got 5 < 10"),
    "synth-samples-0": ({"synth_samples_per_class": 0}, "synth_samples_per_class must be >= 1"),
    "learning-rate-negative": ({"learning_rate": -0.1}, "learning_rate"),
    "smoothness-L-0": ({"learning_rate": None, "smoothness_L": 0}, "smoothness_L"),
    "init-seed-negative": ({"init_seed": -1}, "init_seed"),
    "synth-test-samples-0": (
        {"synth_test_samples_per_class": 0}, "synth_test_samples_per_class must be >= 1, got 0"),
    "local-batch-fraction": ({"local_batch": 2.5}, "local_batch must be an integer, got 2.5"),
    "test-batch-float": ({"test_batch": 64.0}, "test_batch must be an integer, got 64.0"),
    "num-clients-float": ({"num_clients": 20.0}, "num_clients must be an integer"),
    "synth-dim-float": ({"synth_dim": 20.0}, "synth_dim must be an integer"),
    "synth-spread-string": (
        {"synth_spread": "0.3"}, 'synth_spread must be a finite number, got "0.3"'),
    "init-seed-fraction": ({"init_seed": 1.5}, "init_seed must be an integer"),
    "synth-data-seed-fraction": ({"synth_data_seed": 1.5}, "synth_data_seed must be an integer"),
    "wp-first-layer-below-4": (
        {"synth_classes": 2, "synth_dim": 2, "hidden_layers": [1]},
        "family WP needs at least 4 entries in the first layer's weight matrix, got 2"),
    "hidden-layers-string": ({"hidden_layers": "32"}, "hidden_layers must be a list of"),
    "hidden-layers-fraction": ({"hidden_layers": [32.7]}, "hidden_layers must be a list of"),
    "seeds-string": ({"seeds": "12"}, "seeds must be a list of integers"),
    "seeds-fraction": ({"seeds": [1.5]}, "seeds must be a list of integers"),
    "seeds-bool": ({"seeds": [True]}, "seeds must be a list of integers, got [true]"),
    "seeds-empty": ({"seeds": []}, "seeds must list at least one seed, got []"),
    "local-epochs-bool": ({"local_epochs": True}, "local_epochs must be an integer, got true"),
    "codename-list": ({"codename": list("1111223344")}, "codename must be a string"),
    "seed-and-seeds": ({"seed": 5}, "give seed or seeds, not both"),
    "codename-and-codenames": (
        {"codenames": ["1111223344"]}, "give codename or codenames, not both"),
    "codenames-empty": (
        {"codename": ABSENT, "codenames": []}, "codenames must list at least one codename, got []"),
    "codenames-repeated": (
        {"codename": ABSENT, "codenames": ["1111223344", "1111444444", "1111223344"]},
        'codenames must not repeat, got ["1111223344", "1111444444", "1111223344"]'),
    "codenames-non-string": (
        {"codename": ABSENT, "codenames": ["1111223344", 1111444444]},
        'codenames must be a list of strings, got ["1111223344", 1111444444]'),
    "codenames-wrong-length": (
        {"codename": ABSENT, "codenames": ["1111223344", "11114444"]},
        'codenames entry "11114444": codename length 8 must equal floor(c*N) = 10'),
    "codenames-bad-digit": (
        {"codename": ABSENT, "codenames": ["111122334x"]},
        """codenames entry "111122334x": codename may only contain digits 1-7, got ['x']"""),
    "rounds-string": ({"rounds": "3"}, "rounds must be an integer"),
    "momentum-string": ({"momentum": "0.5"}, "momentum must be a finite number"),
    "freeze-after-round-string": (
        {"freeze_after_round": "2"}, "freeze_after_round must be an integer or null"),
    "learning-rate-string": (
        {"learning_rate": "0.1"}, "learning_rate must be a finite number or null"),
    "smoothness-L-string": ({"smoothness_L": "1"}, "smoothness_L must be a finite number or null"),
    "momentum-nan": ({"momentum": float("nan")}, "momentum must be a finite number, got NaN"),
    "idx-without-files": ({"dataset": "idx"}, "missing required keys: ['train_images'"),
    "synth-classes-negative": ({"synth_classes": -1}, "synth_classes must be >= 1, got -1"),
    "synth-samples-negative": (
        {"synth_samples_per_class": -1}, "synth_samples_per_class must be >= 1, got -1"),
    "synth-test-samples-negative": (
        {"synth_test_samples_per_class": -1}, "synth_test_samples_per_class must be >= 1, got -1"),
    "synth-dim-0": ({"synth_dim": 0}, "synth_dim must be >= synth_classes, got 0 < 10"),
    "synth-spread-negative": ({"synth_spread": -1}, "synth_spread must be non-negative, got -1"),
    "synth-data-seed-negative": (
        {"synth_data_seed": -1}, "synth_data_seed must be non-negative, got -1"),
    "idx-keys-in-synthetic": (
        {"test_subset": -3}, 'test_subset apply only to dataset "idx"'),
    "synth-keys-in-idx": (
        {"dataset": "idx", "train_images": "a", "train_labels": "b", "test_images": "c",
         "test_labels": "d"},
        "synth_classes, synth_dim, synth_samples_per_class, synth_spread, "
        'synth_test_samples_per_class apply only to dataset "synthetic"'),
    # a range error names one key and its value
    "num-clients-0": ({"num_clients": 0}, "num_clients must be >= 1, got 0\n"),
    "num-clients-negative": ({"num_clients": -3}, "num_clients must be >= 1, got -3\n"),
    "momentum-above-1": ({"momentum": 1.5}, "momentum must be in [0, 1), got 1.5\n"),
    "participation-ratio-above-1": (
        {"participation_ratio": 1.5}, "participation_ratio must be in (0, 1], got 1.5\n"),
    "participation-ratio-0": (
        {"participation_ratio": 0}, "participation_ratio must be in (0, 1], got 0.0\n"),
    "no-slot": (
        {"num_clients": 1}, "participation_ratio must be at least 1 / num_clients = 1, got 0.5\n"),
    "freeze-after-round-0": (
        {"freeze_after_round": 0}, "freeze_after_round must be >= 1, got 0\n"),
    "learning-rate-minus-1": (
        {"learning_rate": -1}, "learning_rate must be non-negative, got -1.0\n"),
    "uncovered-action-ignore": (
        {"uncovered_region_action": "ignore"},
        "uncovered_region_action must be 'warn' or 'error', got 'ignore'\n"),
    "static-slots-too-many-clients": (
        {"static_slots": True},
        "num_clients must equal the codename length 10 when static_slots is true, got 20\n"),
}


@pytest.mark.parametrize(("overrides", "named"), BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_run_reports_bad_config_values_without_a_traceback(tmp_path, capsys, overrides, named):
    path = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: bad config {path}: ")
    assert named in captured.err
    assert not list(out.rglob("metrics_seed*"))  # no run of any codename trained


@pytest.mark.parametrize(("overrides", "named"), [
    ({"train_subset": 0}, "train_subset must be >= 1, got 0"),
    ({"test_subset": -3}, "test_subset must be >= 1, got -3"),
    ({"subset_seed": -1}, "subset_seed must be non-negative, got -1"),
    ({"partition": "foo"}, "partition must be 'iid' or 'label-skew', got 'foo'"),
    ({"classes_per_client": 0}, "classes_per_client must be >= 1, got 0"),
])
def test_idx_config_errors_name_their_key_before_any_file_is_read(tmp_path, capsys, overrides,
                                                                   named):
    paths = {k: str(tmp_path / k) for k in ("train_images", "train_labels", "test_images",
                                            "test_labels")}  # none of them exists
    path = write_config(tmp_path, IDX_CONFIG, dataset="idx", **paths, **overrides)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: bad config {path}: {named}\n"


def test_run_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: bad config {path}: a run config must be a JSON object\n"


def test_a_missing_codename_is_named(tmp_path):
    config = dict(QUICK_CONFIG)
    del config["codename"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=re.escape("missing required keys: ['codename']")):
        load_run_config(path)


def test_a_key_given_twice_is_an_error_not_its_last_value(tmp_path, capsys, monkeypatch):
    def no_data(config):
        raise AssertionError("data built for a config with a repeated key")

    monkeypatch.setattr(fedprune.cli, "build_federated_data", no_data)
    text = json.dumps({**QUICK_CONFIG, "rounds": 1})
    path = tmp_path / "config.json"
    path.write_text(text.replace('"rounds": 1', '"rounds": 1, "rounds": 0'))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f'error: bad config {path}: duplicate key "rounds"\n'
    assert not out.exists()


@pytest.mark.parametrize("source", ["key", "flag"])
def test_an_empty_out_dir_is_an_error(tmp_path, capsys, monkeypatch, source):
    monkeypatch.chdir(tmp_path)  # where an empty path would write
    path = write_config(tmp_path, out_dir="" if source == "key" else str(tmp_path / "out"))
    assert main(["run", "--config", str(path), *(["--out", ""] if source == "flag" else [])]) == 1
    err = capsys.readouterr().err
    assert err == f'error: bad config {path}: out_dir must be a non-empty string, got ""\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_codenames_run_each_codename_as_a_codename_run_would(tmp_path, capsys):
    mixes = ["1111223344", "1111444444"]
    path = write_config(tmp_path, codename=ABSENT, codenames=mixes, seeds=[1, 2])
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "sweep")]) == 0
    stdout = capsys.readouterr().out
    assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == [*mixes, "sweep.csv"]
    for codename in mixes:
        single = write_config(tmp_path, codename=codename, seeds=[1, 2])
        out = tmp_path / f"single-{codename}"
        assert main(["run", "--config", str(single), "--out", str(out)]) == 0
        single_stdout = capsys.readouterr().out.replace(str(out), str(tmp_path / "sweep" / codename))
        assert f"codename {codename}:\n{single_stdout}" in stdout
        files = sorted(p.name for p in out.iterdir())
        assert files == sorted(p.name for p in (tmp_path / "sweep" / codename).iterdir())
        for name in files:
            assert (tmp_path / "sweep" / codename / name).read_bytes() == (out / name).read_bytes()
    assert stdout.endswith(f"sweep: 2 codenames -> {tmp_path / 'sweep' / 'sweep.csv'}\n")
    with open(tmp_path / "sweep" / "sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["codename"] for row in rows] == mixes
    for row in rows:
        summary = json.loads((tmp_path / "sweep" / row["codename"] / "summary.json").read_text())
        assert float(row["acc_mean"]) == round(summary["final_accuracy_mean"], 4)
        assert float(row["acc_std"]) == round(summary["final_accuracy_std"], 4)


def test_a_command_builds_its_data_and_judges_each_codename_once(tmp_path, monkeypatch, capsys):
    """Set-up is per command: one build, one partition per seed and one verdict per codename
    before any training; a (codename, seed) run only trains."""
    import fedprune.federation as federation

    events = []

    def spy(module, name, event):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            events.append(event(*args))
            return result

        monkeypatch.setattr(module, name, wrapper)

    spy(fedprune.cli, "build_federated_data", lambda config: ("build",))
    spy(federation, "codename_facts", lambda config, layout: ("facts", config.codename))  # cli's too
    for module in (fedprune.cli, federation):  # wherever the cost is looked up
        spy(module, "computed_row", lambda family, codename, layout: ("computed_row", codename))
    spy(federation, "partition", lambda train, mode, clients, classes, seed: ("partition", seed))
    spy(federation, "local_update", lambda *args: ("local_update",))
    mixes = ["1111223344", "1111444444"]
    path = write_config(tmp_path, codename=ABSENT, codenames=mixes, seeds=[1, 2, 3], rounds=1)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()

    assert events.count(("build",)) == 1
    facts = [i for i, e in enumerate(events) if e[0] == "facts"]
    assert [events[i] for i in facts] == [("facts", c) for c in mixes]
    assert facts[-1] < events.index(("local_update",))
    assert all(e[0] != "computed_row" for e in events[facts[-1]:])
    partitions = [e[1] for e in events[events.index(("build",)) + 1:] if e[0] == "partition"]
    assert partitions == [2, 3]  # one per seed after the first, whose shards the build dealt


def test_an_error_sweep_fails_before_any_output_or_training(tmp_path, monkeypatch, capsys):
    def no_training(*args):
        raise AssertionError("local training ran in a command whose coverage fails")

    monkeypatch.setattr(fedprune.federation, "local_update", no_training)
    path = write_config(tmp_path, codename=ABSENT, codenames=["1111223344", "4444444444"],
                        family="FS", uncovered_region_action="error")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coverage violation: ") and "codename 4444444444" in err
    assert not out.exists()


def test_a_warn_codename_warns_once_per_command(tmp_path, capsys):
    path = write_config(tmp_path, codename="4444444444", family="FS", rounds=1, seeds=[1, 2, 3])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert sum("gamma_min = 0" in str(w.message) for w in caught) == 1


# any value of the wrong JSON type, or negative, zero or fractional; no large sizes
WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.sampled_from([-1, 0, 1, 2, -1.5, 0.0, 0.5, 2.5]),
    st.text(max_size=2), st.sampled_from(["NP", "FS", "label-skew", "idx", "error", "11"]),
    st.lists(st.sampled_from([-1, 0, 1, 2, 0.5, True, "11"]), max_size=2), st.just({}),
)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(
    st.sampled_from(sorted(set(CONFIG_KEYS) - {"out_dir"})), WRONG_VALUES, min_size=1, max_size=2,
))
@example({"codenames": ["11"]})  # a list of strings: parsed, then each entry checked
@example({"codenames": ["11", "11"]})
def test_run_never_raises_on_a_config_with_bad_values(changes):
    config = {**QUICK_CONFIG, "rounds": 1, "synth_samples_per_class": 4,
              "synth_test_samples_per_class": 2, **changes}
    if "codenames" in changes and "codename" not in changes:
        del config["codename"]  # so the list gets past the one-key-or-the-other check
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gamma_min = 0 warns
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")]) in (0, 1, 2, 4)


@pytest.mark.parametrize("family", ["NP", "FS"])
@pytest.mark.parametrize("hidden", [[16, 8], [3]], ids=["two-hidden", "three-neurons"])
def test_run_rejects_neuron_pruning_layouts_before_building_data(
    tmp_path, capsys, monkeypatch, family, hidden
):
    def no_data(config):
        raise AssertionError("data built for a config that cannot run")

    monkeypatch.setattr(fedprune.cli, "build_federated_data", no_data)
    path = write_config(tmp_path, family=family, hidden_layers=hidden)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad config {path}: ")
    assert f"family {family} needs exactly one hidden layer of at least 4 neurons" in err
    assert not (out / "metrics_seed1.csv").exists()


@pytest.mark.parametrize("source", ["config"])  # the one source of a run's seeds
def test_run_rejects_repeated_seeds(tmp_path, capsys, source):
    path = write_config(tmp_path, seeds=[1, 2, 1])
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: bad config {path}: seeds must not repeat, got [1, 2, 1]\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["config"])  # the one source of a run's seeds
def test_run_rejects_negative_seeds_naming_them(tmp_path, capsys, source):
    path = write_config(tmp_path, seeds=[2, -1])
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: bad config {path}: seeds must be non-negative, got [2, -1]\n"
    assert not out.exists()


def test_run_reports_a_non_finite_test_set_loss_as_divergence(tmp_path, capsys):
    # the aggregated model stays finite, but its test-set loss overflows to nan in round 3
    path = write_config(tmp_path, QUICKSTART, seeds=[0], rounds=3, learning_rate=1500)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(
        "error: training diverged: round 3: non-finite test-set loss or gradient "
        "of the aggregated model (loss nan, "
    )
    assert err.count("\n") == 1
    assert not (out / "summary.json").exists()


def test_run_divergence_prints_one_line_and_no_numpy_warnings(tmp_path):
    path = write_config(tmp_path, QUICKSTART, seeds=[0], rounds=3, learning_rate=1e300)
    proc = subprocess.run(
        [sys.executable, "-m", "fedprune.cli", "run", "--config", str(path), "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: training diverged: round 1: non-finite local model ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_run_reports_divergence_without_a_traceback(tmp_path, capsys):
    path = write_config(tmp_path, QUICKSTART, rounds=3, learning_rate=1e300)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy notes the overflow first
        code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged: round 1: non-finite local model ")
    assert "slot 0 (client " in err and err.count("\n") == 1
    assert not (out / "summary.json").exists()


def test_run_with_no_rounds_is_a_config_error(tmp_path, capsys):
    paths = {k: str(tmp_path / k) for k in ("train_images", "train_labels", "test_images",
                                            "test_labels")}  # none of them exists
    path = write_config(tmp_path, IDX_CONFIG, dataset="idx", **paths, rounds=0)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: bad config {path}: rounds must be >= 1, got 0\n"
    assert captured.out == ""
    assert not out.exists()


def test_run_three_seeds_three_files_plus_summary(tmp_path, capsys):
    path = write_config(tmp_path, seeds=[1, 2, 3])
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    for seed in (1, 2, 3):
        assert (out / f"metrics_seed{seed}.csv").exists()
        assert (out / f"metrics_seed{seed}.jsonl").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [1, 2, 3]
    assert len(summary["final_accuracy_per_seed"]) == 3
    assert 0.0 <= summary["final_accuracy_mean"] <= 1.0


def test_run_byte_identical_across_repeats(tmp_path):
    path = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out_b)]) == 0
    csv_a = (out_a / "metrics_seed1.csv").read_bytes()
    csv_b = (out_b / "metrics_seed1.csv").read_bytes()
    assert csv_a == csv_b
    assert (out_a / "metrics_seed1.jsonl").read_bytes() == (out_b / "metrics_seed1.jsonl").read_bytes()


def test_run_coverage_violation_exit_code(tmp_path):
    path = write_config(
        tmp_path, codename="4444444444", family="FS",
        uncovered_region_action="error", hidden_layers=[16],
    )
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x" / "metrics_seed1.csv").exists()


def test_run_warn_mode_flags_gamma_zero(tmp_path):
    path = write_config(tmp_path, codename="4444444444", family="FS", rounds=1)
    out = tmp_path / "w"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    csv_text = (out / "metrics_seed1.csv").read_text().splitlines()
    header = csv_text[0].split(",")
    row = csv_text[1].split(",")
    assert row[header.index("gamma_min")] == "0"


def test_run_cli_overrides_beat_file_values(tmp_path):
    path = write_config(tmp_path, rounds=1, out_dir=str(tmp_path / "file_out"))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0  # --out replaces out_dir
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "o"]
    assert (out / "metrics_seed1.csv").read_text().count("\n") == 1 + 1


def test_run_unwritable_output_is_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    path = write_config(tmp_path, rounds=1)
    assert main(["run", "--config", str(path), "--out", str(blocker / "sub")]) == 3


def test_shipped_quickstart_config_runs(tmp_path):
    path = write_config(tmp_path, QUICKSTART, rounds=2, seeds=[1])
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "q")]) == 0
    assert (tmp_path / "q" / "summary.json").exists()


@pytest.mark.parametrize("partition", ["iid", "label-skew"])
def test_run_outputs_are_independent_of_lanes(tmp_path, use_lanes, partition):
    config = write_config(tmp_path, QUICKSTART, rounds=3, seeds=[1, 2], partition=partition)
    outputs = {}
    for lanes in (1, 2, 3):
        use_lanes(lanes)
        out = tmp_path / f"lanes{lanes}"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        outputs[lanes] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert sorted(outputs[1]) == [
        "metrics_seed1.csv", "metrics_seed1.jsonl", "metrics_seed2.csv", "metrics_seed2.jsonl",
        "summary.json",
    ]
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]


def load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def direct_federation(raw: dict) -> FederationConfig:
    """The FederationConfig a run config asks for, built from its values by hand."""
    if raw.get("dataset", "synthetic") == "idx":
        dataset = IdxSpec(raw["train_images"], raw["train_labels"], raw["test_images"],
                          raw["test_labels"], raw.get("train_subset"), raw.get("test_subset"),
                          raw.get("subset_seed", 0))
    else:
        dataset = SynthSpec(**{k.removeprefix("synth_"): v for k, v in raw.items()
                               if k.startswith("synth_")})
    names = {f.name for f in fields(FederationConfig)} - {"dataset", "seed"}
    first = {"codename": raw["codenames"][0]} if "codenames" in raw else {}
    return FederationConfig(dataset=dataset, seed=raw["seeds"][0], **first,
                            **{k: v for k, v in raw.items() if k in names})


def check_parses_to_its_own_values(path, raw: dict):
    config = load_run_config(path)
    assert config.federation == direct_federation(raw)
    assert config.seeds == tuple(raw["seeds"])
    assert config.codenames == tuple(raw.get("codenames", ()))
    assert config.out_dir == Path(raw.get("out_dir", "runs"))


SHIPPED_CONFIGS = sorted(ROOT.glob("configs/*.json"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=[p.name for p in SHIPPED_CONFIGS])
def test_shipped_config_parses(path):
    """A config in configs/ parses to its own values: one that does not cannot ship."""
    check_parses_to_its_own_values(path, json.loads(path.read_text()))


def test_benchmark_workload_configs_parse(tmp_path):
    """Every benchmark workload's config parses to its own values."""
    workloads = [w.run_config(0) for w in load_workloads().values() if w.federated]
    assert workloads
    for raw in workloads:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        check_parses_to_its_own_values(path, raw)


def test_readme_config_table_lists_every_accepted_key_with_its_json_type():
    section = (ROOT / "README.md").read_text().split("## Config keys", 1)[1].split("\n## ", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    table = {key.removeprefix("| `").removesuffix("`"): kind for key, kind, *_ in rows}
    assert len(table) == len(rows)  # no key listed twice
    assert table == {key: json_type(hint) for key, hint in CONFIG_KEYS.items()}


def test_run_dataset_idx_missing_file(tmp_path, capsys):
    path = write_config(
        tmp_path, IDX_CONFIG, dataset="idx",
        train_images=str(tmp_path / "ti"), train_labels=str(tmp_path / "tl"),
        test_images=str(tmp_path / "vi"), test_labels=str(tmp_path / "vl"),
    )
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "i")]) == 1
    assert capsys.readouterr().err.startswith("error: dataset file not found: ")


@pytest.mark.parametrize("kind", ["missing", "directory", "truncated", "negative-size",
                                  "claims-2**61-bytes", "test-labels-beyond-train-classes"])
def test_run_dataset_read_error_exits_1_naming_the_path_with_no_output(tmp_path, capsys, kind):
    import numpy as np

    from file_formats import write_idx

    from fedprune.data import Dataset

    ti, tl, vi, vl = (tmp_path / name for name in ("ti", "tl", "vi", "vl"))
    if kind not in ("missing", "directory"):
        train_labels = np.arange(40) % 3
        test_labels = np.arange(20) % (5 if kind == "test-labels-beyond-train-classes" else 3)
        write_idx(Dataset(np.eye(16)[train_labels], train_labels, 3), ti, tl)
        write_idx(Dataset(np.eye(16)[test_labels], test_labels, 5), vi, vl)
    if kind == "truncated":
        ti.write_bytes(ti.read_bytes()[:40])  # the header and 24 of 640 pixels
    if kind in ("negative-size", "claims-2**61-bytes"):  # 40 images of 4 x 4 in the header
        sizes = (40, 4, -4) if kind == "negative-size" else (2**30, 2**15, 2**16)
        ti.write_bytes(struct.pack(">iiii", 0x803, *sizes) + ti.read_bytes()[16:])
    if kind == "directory":
        ti.mkdir()
    path = write_config(tmp_path, IDX_CONFIG, dataset="idx", train_images=str(ti),
                        train_labels=str(tl), test_images=str(vi), test_labels=str(vl))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    want = {
        "missing": f"error: dataset file not found: [Errno 2] No such file or directory: '{ti}'",
        "directory": f"error: dataset file unreadable: [Errno 21] Is a directory: '{ti}'",
        "truncated": f"error: dataset file malformed: truncated IDX file {ti}: wanted 640 bytes, "
                     f"got 24",
        "negative-size": f"error: dataset file malformed: negative size in the header of {ti}: "
                         f"[40, 4, -4]",
        "claims-2**61-bytes": f"error: dataset file malformed: truncated IDX file {ti}: "
                              f"wanted {2**61} bytes, got 640",
        "test-labels-beyond-train-classes": f"error: dataset file malformed: test labels {vl} "
                                            f"reach 5 classes, but train labels {tl} have 3",
    }[kind]
    assert err == want + "\n"
    assert not out.exists()


def test_run_rejects_an_idx_test_set_of_zero_items(tmp_path, capsys):
    import numpy as np

    from file_formats import write_idx

    from fedprune.data import Dataset

    labels = np.arange(40) % 2
    write_idx(Dataset(np.eye(16)[labels], labels, 2), tmp_path / "train.idx", tmp_path / "train-labels.idx")
    write_idx(Dataset(np.zeros((0, 16)), np.zeros(0, dtype=np.int64), 2),
              tmp_path / "test.idx", tmp_path / "test-labels.idx")
    path = write_config(
        tmp_path, IDX_CONFIG, dataset="idx", codename="1144", num_clients=8,
        participation_ratio=0.5, hidden_layers=[8],
        train_images=str(tmp_path / "train.idx"), train_labels=str(tmp_path / "train-labels.idx"),
        test_images=str(tmp_path / "test.idx"), test_labels=str(tmp_path / "test-labels.idx"),
    )
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: bad config {path}: the test set is empty\n"


def test_run_from_idx_files_end_to_end(tmp_path):
    import numpy as np

    from file_formats import write_idx

    from fedprune.data import Dataset

    rng = np.random.default_rng(0)

    def fake_digits(n):
        labels = rng.integers(0, 3, n)
        pixels = rng.integers(0, 256, (n, 16)).astype(float)
        pixels[np.arange(n), labels] = 255.0  # learnable signal in one pixel
        return Dataset(pixels / 255.0, labels, 3)

    write_idx(fake_digits(60), tmp_path / "train.idx", tmp_path / "train-labels.idx")
    write_idx(fake_digits(30), tmp_path / "test.idx", tmp_path / "test-labels.idx")
    path = write_config(
        tmp_path, IDX_CONFIG, dataset="idx", codename="1144", num_clients=8,
        participation_ratio=0.5, hidden_layers=[8], rounds=2,
        train_images=str(tmp_path / "train.idx"), train_labels=str(tmp_path / "train-labels.idx"),
        test_images=str(tmp_path / "test.idx"), test_labels=str(tmp_path / "test-labels.idx"),
    )
    out = tmp_path / "idx_run"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "metrics_seed1.csv").read_text().strip().splitlines()
    assert len(lines) == 3


# Requests of 1 PiB and more lie beyond a 47-bit address space, so they fail at once
# whatever the overcommit setting.
@pytest.mark.parametrize("key, value, nbytes", [
    ("synth_samples_per_class", 10**14, "142. PiB"),  # the data, before any output
    ("hidden_layers", [10**13], "2.20 PiB"),  # the model, at the first run: its directory exists
], ids=["data", "model"])
def test_a_config_too_large_to_allocate_is_one_error_line(tmp_path, capsys, key, value, nbytes):
    path = write_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: out of memory for config {path}: Unable to allocate {nbytes} ")
    assert err.count("\n") == 1
    assert out.exists() == (key == "hidden_layers")  # as README's exit-code paragraph says
    assert not out.exists() or not any(out.iterdir())  # and no file is written


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------


def test_selfcheck_passes_clean_build(capsys):
    assert main(["selfcheck", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_selfcheck_rejects_a_negative_seed(capsys):
    assert main(["selfcheck", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be non-negative\n"
    assert captured.out == ""


def test_selfcheck_fault_injection_only_breaks_gradient(capsys, monkeypatch):
    oracle = fedprune.selfcheck._finite_difference_grad
    monkeypatch.setattr(fedprune.selfcheck, "_finite_difference_grad",
                        lambda *args: oracle(*args) + 1e-3)
    assert main(["selfcheck", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL gradient_finite_difference" in out
    assert out.count("PASS") == 3


def test_selfcheck_fault_injection_in_the_writer_only_breaks_coverage(capsys, monkeypatch):
    writer = fedprune.selfcheck.segment_fill

    def swapped_segments(layout, family, units, per_segment, out):  # S1's value lands on S4 ...
        return writer(layout, family, 3 - units, per_segment, out)

    monkeypatch.setattr(fedprune.selfcheck, "segment_fill", swapped_segments)
    assert main(["selfcheck", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL coverage_oracle" in out
    assert out.count("PASS") == 3


def test_selfcheck_fault_injection_in_aggregate_only_breaks_aggregation(capsys, monkeypatch):
    aggregate = fedprune.selfcheck.aggregate

    def one_slot_too_many(previous, local_sum, counts):  # ... and an uncovered entry moves
        return aggregate(previous, local_sum, counts + 1)

    monkeypatch.setattr(fedprune.selfcheck, "aggregate", one_slot_too_many)
    assert main(["selfcheck", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL aggregation_oracle" in out
    assert out.count("PASS") == 3


def test_selfcheck_fault_injection_in_the_step_only_breaks_mask_closure(capsys, monkeypatch):
    step = fedprune.selfcheck.masked_sgd_step

    def unmasked(params, grad, bits, momentum, coef, lr):  # steps every coordinate
        return step(params, grad, np.ones_like(bits), momentum, coef, lr)

    monkeypatch.setattr(fedprune.selfcheck, "masked_sgd_step", unmasked)
    assert main(["selfcheck", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL mask_closure: pruned coordinate moved off zero" in out
    assert out.count("PASS") == 3


def test_selfcheck_report_is_reproducible(capsys):
    main(["selfcheck", "--seed", "7"])
    first = capsys.readouterr().out
    main(["selfcheck", "--seed", "7"])
    assert capsys.readouterr().out == first
