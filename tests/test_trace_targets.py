"""The benchmark's tracer wraps engine functions by name; every name must still exist.

`perfbench/tracer.py` reports a target that no longer resolves as absent
instead of failing, so a rename in the engine would silently drop a span
from the benchmark. This test fails in the change that does the rename.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"

# Targets whose functions are already gone from the engine; the tracer reports
# them as absent until the benchmark drops or retargets them.
STALE = {
    ("fedprune.federation", "decompose_regions"),
    ("fedprune.federation", "default_maskable_set"),
    ("fedprune.metrics", "default_maskable_set"),
    ("fedprune.federation", "generate_mask"),
    ("fedprune.federation", "grad_norm_estimate"),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize(
    ("span", "module", "path"),
    [t for t in TRACER.TARGETS if (t[1], t[2]) not in STALE],
)
def test_tracer_target_resolves(span, module, path):
    assert TRACER._resolve(module, path) is not None, f"{span}: {module}.{path} is gone"


@pytest.mark.parametrize(
    "name",
    ["local_update", "loss_and_grad", "masked_sgd_step", "apply_mask", "evaluate", "aggregate"],
)
def test_training_spans_stay_bound_in_federation(name):
    assert ("fedprune.federation", name) in {(m, p) for _, m, p in TRACER.TARGETS}
    assert TRACER._resolve("fedprune.federation", name) is not None


def test_the_rank_span_wraps_the_one_ranking_of_a_round():
    """`pruning.rank` times `segment_index_sets`, which labels each unit with its segment."""
    assert ("pruning.rank", "fedprune.pruning", "segment_index_sets") in TRACER.TARGETS
    assert TRACER._resolve("fedprune.pruning", "segment_index_sets") is not None


def test_the_data_build_span_wraps_the_one_build_of_a_command():
    """`data.build_share` measures the build `cmd_run` makes once, through this name."""
    assert ("data.build", "fedprune.cli", "build_federated_data") in TRACER.TARGETS
    assert TRACER._resolve("fedprune.cli", "build_federated_data") is not None


# perfbench's output check imports these; the README documents the last two paths
CHECK_IMPORTS = re.findall(r"from (fedprune\.\w+) import (\w+)", (ROOT / "perfbench" / "run.py").read_text())
README_IMPORTS = [("fedprune.federation", "FederationConfig"), ("fedprune.nn", "LayerLayout")]


def test_perfbench_checks_its_outputs_with_the_names_it_imported_before():
    assert sorted(CHECK_IMPORTS) == [("fedprune.metrics", "CSV_HEADER"), ("fedprune.nn", "LayerLayout"),
                                     ("fedprune.pruning", "codename_coverage"),
                                     ("fedprune.tables", "computed_row")]


@pytest.mark.parametrize(("module", "name"), CHECK_IMPORTS + README_IMPORTS)
def test_each_name_perfbench_and_the_readme_import_resolves(module, name):
    """A name moved out of its module leaves perfbench's check of every mnist_wp and small_np
    command failing (`correct: false`) while every other test passes."""
    assert hasattr(importlib.import_module(module), name), f"{module}.{name} is gone"
