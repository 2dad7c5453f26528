"""The package namespace: lazy public names and what a CLI call imports."""

import importlib.util
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import trunksym

# home module -> the supported public API, as README's "Library use" lists it
EXPORTS = {
    "partitions": (
        "EMPTY", "Node", "NodeSets", "Partition", "add", "addable_nodes", "cells", "dagger",
        "dominance_leq", "format_partition", "is_regular", "is_restricted", "l_core",
        "node_residue", "node_sets", "parse_partition", "partitions_of", "q_arrange",
        "regularity", "removable_nodes", "remove_node", "remove_rim_hook", "residue_content",
        "restricted_decompose", "rim_hooks", "transpose",
    ),
    "mullineux": (
        "LEdge", "add_l_edge", "edge_length", "find_co_suitable_node",
        "find_suitable_node_nonrestricted", "is_edge_l_connected", "l_edge", "mullineux",
        "mullineux_components", "mullineux_length", "mullineux_symbol", "remove_l_edge",
    ),
    "classify": (
        "GoodVerdict", "SpecialVerdict", "distinguished_decomposition", "enumerate_special",
        "is_distinguished", "is_m_good", "is_m_special", "phi_contains",
        "restricted_part_mull_length", "witness_is_valid",
    ),
    "characters": (
        "MonomialChar", "frobenius_stretch", "kostka", "monomials_to_schur", "pieri_h",
        "schur_to_monomials", "truncated_tensor_char", "verify_graded_free_identity",
    ),
    "fock": (
        "DecompositionMatrix", "FockVector", "canonical_column", "column_matrix",
        "decomposition_matrix", "f_apply", "ladder_monomial", "simple_label",
    ),
    "cache": ("CACHE_GENERATOR", "CacheIntegrityError", "cache_get", "cache_put", "load_or_compute"),
    "suites": ("SuiteReport", "run_suite", "suite_names"),
}
SRC = Path(trunksym.__file__).resolve().parent.parent
REPO = Path(__file__).resolve().parent.parent
SPANS = REPO / "perfbench" / "spans.py"


def test_every_export_resolves_to_its_home():
    assert sum(map(len, EXPORTS.values())) == 72
    for home, names in EXPORTS.items():
        module = import_module(f"trunksym.{home}")
        for name in names:
            assert getattr(trunksym, name) is getattr(module, name), (home, name)


def test_readme_lists_the_exports():
    text = (REPO / "README.md").read_text(encoding="utf-8").split("## Library use")[1]
    listed = {}
    for home in EXPORTS:
        row = re.search(rf"^\| `{home}` \| (.*) \|$", text, re.MULTILINE)
        assert row, home
        listed[home] = tuple(name.strip(" `") for name in row.group(1).split(","))
    assert listed == EXPORTS
    assert f"`trunksym.__all__`, the {len(trunksym.__all__)} names below" in " ".join(text.split())


def test_mullineux_stays_the_function():
    for home in (*EXPORTS, "cli"):
        import_module(f"trunksym.{home}")
    assert trunksym.mullineux is import_module("trunksym.mullineux").mullineux


def test_unknown_attribute_and_dir():
    with pytest.raises(AttributeError, match="no_such_name"):
        trunksym.no_such_name
    listed = set(dir(trunksym))
    for names in EXPORTS.values():
        assert listed.issuperset(names)
    assert sorted(trunksym.__all__) == sorted(n for names in EXPORTS.values() for n in names)


# stdlib modules that cost a CLI call milliseconds to import and that no verb needs
HEAVY = ("dataclasses", "inspect")

# the inputs of CI's "every verb runs in a fresh process" step
VERB_INPUTS = (
    ["info", "4,2,1", "--l", "3"],
    ["mull", "4,2,1", "--l", "3"],
    ["core", "4,2,1", "--l", "3"],
    ["special", "4,2", "--l", "3", "--m", "2", "--witness"],
    ["good", "4,2,1", "--l", "3", "--m", "2", "--oracle", "--cache", "{cache}"],
    ["enumerate-special", "--l", "3", "--m", "1", "--degree", "5"],
    ["char", "--m", "2", "--n", "2", "--l", "2", "--degree", "4"],
    ["decomp-matrix", "--l", "3", "--degree", "6", "--cache", "{cache}"],
    ["crosscheck", "--suite", "core-residues"],
)


def _fresh(code: str, *args: str) -> list[str]:
    """Run code in a fresh interpreter; the words of its last stdout line."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=60, check=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    return proc.stdout.splitlines()[-1].split()


def test_parser_imports_only_the_partition_core():
    code = (
        "import sys, trunksym.cli; trunksym.cli.build_parser(); "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'trunksym'"
        f" or m in {HEAVY!r})))"
    )
    assert _fresh(code) == ["trunksym", "trunksym.cli", "trunksym.mullineux",
                            "trunksym.partitions"]


@pytest.mark.parametrize("argv", VERB_INPUTS, ids=lambda argv: argv[0])
def test_no_verb_imports_heavy_modules(argv, tmp_path):
    code = (
        "import sys, trunksym.cli; rc = trunksym.cli.main(sys.argv[1:]); "
        f"print(rc, *sorted(set({HEAVY!r}) & sys.modules.keys()))"
    )
    argv = [a.replace("{cache}", str(tmp_path)) for a in argv]
    assert _fresh(code, *argv) == ["0"]


def test_tracer_names_resolve():
    # perfbench/spans.py installs a span on each WRAPPED name and counts
    # FockVector.subtract_scaled; a traced run crashes on a missing one
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(layer, name) for layer, group in spans.WRAPPED.items() for name in group]
    for layer, name in names + [("fock", "FockVector.subtract_scaled")]:
        target = import_module(f"trunksym.{layer}")
        for attr in name.split("."):
            target = getattr(target, attr)
        assert callable(target), (layer, name)
