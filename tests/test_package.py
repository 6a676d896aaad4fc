"""The package's public names and imports."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import noma_harq

README = Path(__file__).resolve().parents[1] / "README.md"
REMOVED = ["per_ir", "initial_sinr", "transition_prob", "per_user", "success_prob",
           "UserPosition", "per_cc", "q_function", "channel_dispersion",
           "chi_square_state_fit", "ConsistencyError", "ROW_SUM_TOL"]
# attributes and parameters removed from names that remain
REMOVED_MEMBERS = {
    "cellplan.CellPlan": ["ratio_index", "ratio", "to_json"],
    "cellplan.build_plan": ["n_hat"],
    "montecarlo.SimConfig": ["path_loss_exp", "r_outer", "power_cap_factor"],
    "montecarlo.disk_positions": ["r_outer"],
    "markov.oma_received_power": ["iterations"],
    "optimizer.min_blocklength": ["coarse_stride"],
    "optimizer.GaParams": ["crossover_rate", "mutation_rate", "mutation_sigma",
                           "elitism_count"],
}
PACKAGE = Path(noma_harq.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in noma_harq.__all__ if not hasattr(noma_harq, name)]
    assert missing == []
    assert len(set(noma_harq.__all__)) == len(noma_harq.__all__)


def test_star_import():
    namespace = {}
    exec("from noma_harq import *", namespace)
    assert set(noma_harq.__all__) <= set(namespace)


def test_removed_names_are_gone_and_listed_in_readme():
    modules = [importlib.import_module(f"noma_harq.{m}")
               for m in ("fbl", "sic", "markov", "montecarlo", "cellplan", "errors")]
    for name in REMOVED:
        assert name not in noma_harq.__all__
        assert not any(hasattr(m, name) for m in modules), name
    assert not hasattr(noma_harq.NumericalError("x"), "residual")
    members = ["residual"]
    for path, names in REMOVED_MEMBERS.items():
        module, attr = path.split(".")
        obj = getattr(importlib.import_module(f"noma_harq.{module}"), attr)
        for name in names:
            assert name not in inspect.signature(obj).parameters, (path, name)
            assert not hasattr(obj, name), (path, name)
        members += names
    changes = README.read_text().split("## API changes", 1)[1]
    for name in REMOVED + members + ["per_fn", "max_transmissions", "NOMA_HARQ_THREADS"]:
        assert re.search(rf"`[\w.]*\b{name}`", changes), name


def test_every_import_is_used():
    # a name a module imports is read somewhere in it, or re-exported
    # through __all__
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                used |= {elt.value for elt in node.value.elts}
        assert sorted(imported - used) == [], path.name


def test_scalar_sic_path_is_a_test_oracle_only():
    # production code reads the vectorized tables; the package's public
    # names re-export the scalar path for the tests and the benchmark
    scalar = {"SystemState", "DecodingOrder", "decoding_order", "stage_sinr"}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("sic", "__init__"):
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert sorted(names & scalar) == [], path.name


def test_only_sic_raises_ten_to_a_power():
    # sic.db_to_linear is the one dB -> linear conversion, so one check
    # refuses every level whose linear value is not a positive finite double
    def ten(node):
        return isinstance(node, ast.Constant) and node.value == 10

    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "sic":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                assert not ten(node.left), (path.name, node.lineno)
            if isinstance(node, ast.Call) and node.args:
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                assert not (name in ("pow", "power", "float_power") and ten(node.args[0])), \
                    (path.name, node.lineno)


def test_no_module_reads_the_environment():
    # every setting comes from arguments, config files or module constants
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                name = f"{node.value.id}.{node.attr}"
                assert name not in ("os.environ", "os.getenv"), (path.name, name)
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {a.name for a in node.names}
                assert not names & {"environ", "getenv"}, path.name


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats takes about half of the package's import time
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, noma_harq.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
