"""The package's public names: every name a module lists in ``__all__``
and every name ``baresim/__init__.py`` imports must exist; and importing the
package loads no scipy, nor does a solve on a path that does not need it;
no stage loads jsonschema, which the config reader does not use; and every
source file parses at the Python floor that pyproject.toml declares."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import baresim

MODULES = sorted(m.name for m in pkgutil.iter_modules(baresim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"baresim.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"baresim.{name}.__all__ lists missing names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(baresim.__file__).read_text())
    imported = [alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    missing = [n for n in imported if not hasattr(baresim, n)]
    assert not missing, f"baresim imports missing names {missing}"


def test_submodules_are_modules():
    # the package re-exports no function under a submodule's name, so
    # `import baresim.divergence as dv` binds the module
    import baresim.divergence as dv
    import baresim.entropy

    assert dv.PowerGamma is not None
    assert baresim.entropy.shannon is not None


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_at_python_3_10(path):
    # requires-python = ">=3.10": no syntax newer than 3.10
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# Loads baresim in a fresh interpreter and, after each stage, lists the scipy
# and the jsonschema modules in sys.modules: importing the package and the
# CLI, then one small solve of each path that needs no scipy.
_COLD_START = r"""
import json, sys
from pathlib import Path

LIBS = ("scipy", "jsonschema")

def loaded():
    return {lib: sorted(m for m in sys.modules if m == lib or m.startswith(lib + "."))
            for lib in LIBS}

stages = {}
import baresim, baresim.cli
stages["import"] = loaded()

from baresim import cli, problems
import numpy as np

config = baresim.EstimatorConfig(n=40, L=400, seed=1)
baresim.estimate_min_divergence(
    baresim.PowerGamma(-1.0), np.array([0.2, 0.3, 0.5]),
    baresim.halfspace([1.0, 1.0, 1.0], 1.3, ">="), config, mode="deterministic")
stages["power_deterministic"] = loaded()

v = np.array([0.5, 1.0, 1.5])
problems.solve(problems.SeparableQuadratic(
    c1=v**2, c2=-2.0 * v, c3=np.ones(3),
    omega=baresim.halfspace(np.ones(3), 3.15, ">=")),
    baresim.EstimatorConfig(n=400, L=2000, seed=2))
stages["separable_quadratic"] = loaded()

work = Path(sys.argv[1])
(work / "labels.txt").write_text("a\nb\nb\nc\nc\nc\n" * 20)
(work / "run.json").write_text(json.dumps({
    "generator": {"family": "power", "gamma": 1.0},
    "data_file": str(work / "labels.txt"),
    "mode": "empirical",
    "constraint": {"type": "coordinate", "index": 0, "bound": 0.3, "op": ">="},
    "estimator": {"n": 120, "L": 2000, "seed": 3},
}))
code = cli.main(["estimate", "--config", str(work / "run.json"),
                 "--out", str(work / "out.json")])
stages["cli_estimate_empirical"] = (
    loaded() if code == 0 else dict.fromkeys(LIBS, [f"exit code {code}"]))

# gamma = 3: distorted stable weights, drawn by inverting their
# characteristic function over a window found in closed form
baresim.estimate_min_divergence(
    baresim.PowerGamma(3.0), np.array([0.2, 0.3, 0.5]),
    baresim.halfspace([1.0, 1.0, 1.0], 1.3, ">="), config, mode="deterministic")
stages["distorted_stable_deterministic"] = loaded()
print(json.dumps(stages))
"""

COLD_START_STAGES = ["import", "power_deterministic", "separable_quadratic",
                     "cli_estimate_empirical", "distorted_stable_deterministic"]


@pytest.fixture(scope="module")
def cold_start(tmp_path_factory):
    work = tmp_path_factory.mktemp("cold_start")
    env = dict(os.environ)
    src = str(Path(baresim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(work)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("stage", COLD_START_STAGES)
def test_cold_start_loads_no_scipy(cold_start, stage):
    assert cold_start[stage]["scipy"] == []


@pytest.mark.parametrize("stage", COLD_START_STAGES)
def test_cold_start_loads_no_jsonschema(cold_start, stage):
    assert cold_start[stage]["jsonschema"] == []
