"""The package's public names: each one resolves, and the retired ones stay gone."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

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


def test_importing_the_package_and_cli_loads_no_scipy():
    # Cluster matching runs its own assignment solver and the affinity is
    # held as numpy CSR arrays: scipy.optimize would add about 27 MiB and
    # scipy.sparse about 20 MiB to every import, in every pooled worker.
    src = Path(mccgr.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    script = (
        "import mccgr, mccgr.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_each_floor_is_worded_only_in_errors():
    # A count's or a real setting's floor is checked by errors' helpers, so
    # no other module words it. cli may import only public names, so its
    # --knn check keeps its own message.
    for name, tree in library_trees().items():
        if name in ("errors", "cli"):
            continue
        worded = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "must be >=" in node.value
        ]
        assert worded == [], name


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


def test_only_factorization_imports_private_names_from_graph():
    # The affinity's flat codes stay inside graph: the solver imports the
    # product kernel and the penalty, and no other module reaches in.
    allowed = {"factorization": {"_penalty", "_product_plan", "_times_affinity"}}
    for name, tree in library_trees().items():
        private = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "graph"
            for alias in node.names
            if alias.name.startswith("_")
        }
        assert private <= allowed.get(name, set()), name


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


def test_solve_runs_every_private_kernel_and_nests_no_function():
    # One statement per solver formula: solve defines no function of its
    # own, and every private function of factorization but the argument
    # checks is one that solve reaches through module-level calls, so no
    # kernel is kept for tests alone. The kernels a per-layer trace of
    # solve names keep their names.
    tree = library_trees()["factorization"]
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    solve = defined["solve"]
    assert [node for node in ast.walk(solve) if isinstance(node, (ast.FunctionDef, ast.Lambda)) and node is not solve] == []
    reached, pending = set(), ["solve"]
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        if name in defined:
            calls = (node for node in ast.walk(defined[name]) if isinstance(node, ast.Call))
            pending += [call.func.id for call in calls if isinstance(call.func, ast.Name)]
    private = {name for name in defined if name.startswith("_") and not name.startswith("_check_")}
    assert sorted(private - reached) == []
    traced = {"_products", "_gram_r2", "_update_h", "_update_w", "_times_affinity", "_penalty", "_kl_step", "_kl_divergence"}
    assert traced <= reached


def test_solve_calls_each_e_step_and_objective_formula_once():
    # The start is iteration 0 of solve's one loop, so the E-step, w A, the
    # objective and the KL divergence each have one call site in it.
    tree = library_trees()["factorization"]
    solve = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "solve")
    called = [node.func.id for node in ast.walk(solve) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    for kernel in ("_sigma", "_rho", "_times_affinity", "_objective", "_kl_divergence"):
        assert called.count(kernel) == 1, kernel


def test_one_cell_runner_owns_the_pool_and_its_workers_warnings():
    # run_experiment only routes each cell's records; the runner alone
    # starts the pool and re-emits what the workers warned.
    tree = library_trees()["harness"]
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reemits(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "warn_explicit"]

    assert len(reemits(tree)) == 1
    assert len(reemits(defined["_solve_cells"])) == 1
    named = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(defined["run_experiment"])}
    assert named & {"ProcessPoolExecutor", "_module_of", "_recording", "warn_explicit"} == set()
