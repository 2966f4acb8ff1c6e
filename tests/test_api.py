"""The package's public names: each one resolves, and the retired ones stay gone."""

import ast
import importlib
import inspect
import pkgutil
from dataclasses import fields

import pytest

import mccgr
from mccgr import cli

MODULES = sorted(info.name for info in pkgutil.iter_modules(mccgr.__path__))

# Names that nothing but tests read: wrappers around the solver's E-step and
# objective kernels, which solve runs itself, the sweep-only runner, whose
# table run_experiment returns as AggregateReport.sweep, and that table's
# writer, which emit_report's one CSV writer replaced; and the labelled
# dataset and its loader, whose callers now call read_matrix and
# load_labels, with run_experiment pairing the two.
RETIRED = (
    "sigma_update", "rho_step", "mcc_objective", "objective_l2", "objective_kl", "alpha_sweep", "write_alpha_sweep",
    "LabeledDataset", "load_csv",
)


# The modules the package re-exports, in the order of its __all__.
EXPORTING = ("errors", "evaluation", "factorization", "graph", "harness", "matrix")

# Names callers import from the package; none may leave it.
EXPORTED = (
    "AffinityGraph", "AggregateReport", "Clustering", "DataError", "EvalReport", "ExperimentSpec", "Factorization",
    "MatchResult", "NumericalError", "RunRecord", "SolverConfig", "VARIANTS", "accuracy", "build_knn_affinity",
    "dual_gradient_h", "dual_gradient_w", "dual_objective", "emit_report", "evaluate", "graph_penalty",
    "hungarian_match", "init_factors", "kkt_products", "kmeans", "laplacian", "load_labels", "make_synthetic", "nmi",
    "read_matrix", "run_experiment", "sample_categories", "save_csv", "save_labels", "solve", "update_h", "update_w",
)


def test_the_package_exports_exactly_its_modules_lists():
    listed = [name for module in EXPORTING for name in importlib.import_module(f"mccgr.{module}").__all__]
    assert mccgr.__all__ == listed
    assert len(set(listed)) == len(listed)
    assert set(EXPORTED) <= set(listed)
    # __init__ names no public name itself: it imports the modules and
    # star-imports each, and builds __all__ from theirs.
    for node in ast.walk(ast.parse(inspect.getsource(mccgr))):
        if isinstance(node, ast.ImportFrom):
            assert [alias.name for alias in node.names] in (["*"], list(EXPORTING))
        assert not (isinstance(node, ast.Constant) and node.value in listed)


def test_star_import_gives_every_listed_name():
    namespace = {}
    exec("from mccgr import *", namespace)
    assert set(mccgr.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_a_module_lists_resolves(name):
    module = importlib.import_module(f"mccgr.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"mccgr.{name}.{attr}"


def test_every_package_name_is_an_attribute():
    assert len(set(mccgr.__all__)) == len(mccgr.__all__)
    for attr in mccgr.__all__:
        assert hasattr(mccgr, attr), attr


@pytest.mark.parametrize("name", RETIRED)
def test_retired_wrappers_are_gone(name):
    assert not hasattr(mccgr, name) and name not in mccgr.__all__
    for module in MODULES:
        module = importlib.import_module(f"mccgr.{module}")
        assert not hasattr(module, name) and name not in getattr(module, "__all__", ())


def test_the_cli_imports_only_public_names():
    # The CLI is a client of the library: it uses what any caller can.
    imported = [
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(cli)))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "mccgr")
        for alias in node.names
    ]
    assert "ExperimentSpec" in imported
    assert [name for name in imported if name.startswith("_")] == []


def test_restarts_and_assignments_are_not_passed_along():
    # The k-means restart count is kmeans's alone; no spec key or evaluate
    # parameter forwards it, and evaluate keeps no clustering nothing reads.
    assert "kmeans_restarts" not in {f.name for f in fields(mccgr.ExperimentSpec)}
    assert "restarts" not in inspect.signature(mccgr.evaluate).parameters
    assert "assignments" not in {f.name for f in fields(mccgr.EvalReport)}


@pytest.mark.parametrize("step", [mccgr.update_h, mccgr.update_w])
def test_update_steps_take_no_epsilon(step):
    assert "epsilon" not in inspect.signature(step).parameters


def library_trees():
    return {name: ast.parse(inspect.getsource(importlib.import_module(f"mccgr.{name}"))) for name in MODULES}


def test_each_check_is_defined_in_one_module():
    # One rule per argument kind: counts, data matrices and label vectors
    # are checked by errors' helpers, and no module keeps its own copy.
    defined = {}
    for name, tree in library_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_"):
                defined.setdefault(node.name, []).append(name)
    for check in ("_check_number", "_check_count", "_check_real", "_check_matrix", "_check_labels"):
        assert defined.get(check) == ["errors"], check
    assert {check: where for check, where in defined.items() if len(where) > 1} == {}


def test_no_module_imports_a_private_name_from_factorization():
    for name, tree in library_trees().items():
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "factorization"
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == [], name


def test_input_files_are_read_only_in_matrix():
    # One reader per input file: read_matrix, load_labels and, through
    # matrix's text opener, ExperimentSpec.from_json. Elsewhere the library
    # opens files only to write them and never parses one with np.loadtxt.
    for name, tree in library_trees().items():
        if name == "matrix":
            continue
        for node in ast.walk(tree):
            used = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            assert used != "loadtxt", f"{name}:{node.lineno}"
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                mode = (node.args[1:2] or [kw.value for kw in node.keywords if kw.arg == "mode"] or [None])[0]
                assert isinstance(mode, ast.Constant) and set(mode.value) & set("wax"), f"{name}:{node.lineno}"
