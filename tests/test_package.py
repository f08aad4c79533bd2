"""Tests for the package's public namespace."""

import ast
import functools
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ehadc
from ehadc import config

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BENCH = ROOT / "bench"


def test_every_exported_name_resolves():
    """__all__ is sorted(_EXPORTS): every name in it resolves, and none is
    listed twice."""
    missing = [name for name in ehadc.__all__ if getattr(ehadc, name, None) is None]
    assert missing == []
    assert len(set(ehadc.__all__)) == len(ehadc.__all__)


def _run_python(code: str, **env: str) -> str:
    """Stdout of code in a fresh interpreter that imports this package, with
    OPENBLAS_NUM_THREADS set only if env sets it."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env = {**base, "PYTHONPATH": os.pathsep.join(sys.path), **env}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


def test_importing_the_package_loads_no_numpy_and_sets_no_variable():
    """Each name loads its module on first use, so a library user's BLAS
    keeps its threads: only the ehadc command sets OPENBLAS_NUM_THREADS."""
    code = (
        "import os, sys, ehadc\n"
        "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)\n"
        "from ehadc import run, sweep\n"
        "print(run.__module__, sweep.__module__)\n"
        "print(all(getattr(ehadc, name) is not None for name in ehadc.__all__),"
        " set(ehadc.__all__) <= set(dir(ehadc)))\n"
    )
    assert _run_python(code).splitlines() == ["False False", "ehadc.engine ehadc.engine", "True True"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc/self/task")
@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_the_command_starts_numpy_without_a_blas_pool(preset, want):
    """The ehadc command defaults OPENBLAS_NUM_THREADS to 1 before numpy
    loads, so the process has one thread; a value the user set is kept."""
    code = (
        "import os, ehadc.__main__, numpy\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    )
    out = _run_python(code, **({} if preset is None else {"OPENBLAS_NUM_THREADS": preset}))
    variable, threads = out.split()
    assert variable == want
    if preset is None:
        assert threads == "1"


def test_the_installed_script_runs_the_main_of_python_dash_m():
    script = re.search(r'^ehadc = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert script.groups() == ("ehadc.__main__", "main")
    code = (
        "import runpy, ehadc.__main__, ehadc.cli\n"
        "print(ehadc.__main__.main is ehadc.cli.main is runpy.run_module('ehadc', run_name='probe')['main'])"
    )
    assert _run_python(code) == "True"


@pytest.mark.parametrize(
    "imports, frozen", [("ehadc.__main__", "True"), ("ehadc, ehadc.cli, ehadc.engine", "False")]
)
def test_only_the_command_freezes_the_collector_at_exit(imports, frozen):
    """The ehadc command moves every live object to the collector's permanent
    generation at exit, after the handlers its modules register, so the
    shutdown collections skip them; a library caller's collector, running a
    command through cli.main or a parallel sweep, is left alone. The checker
    is registered first, so it runs after every handler ehadc registers."""
    code = (
        "import atexit, functools, gc\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        f"import {imports}\n"
        "from ehadc import cli\n"
        "from ehadc.config import load_config, scenario_with\n"
        "from ehadc.engine import sweep\n"
        "cli.main(['size-cap', '--i-load', '1e-6', '--t-p', '1e-3', '--delta-v', '0.1'])\n"
        f"cfg = load_config({str(ROOT / 'configs' / 'lowfreq.cfg')!r})\n"
        "sweep(functools.partial(scenario_with, cfg, 'alpha'), 'alpha', [0.1, 0.2], jobs=2, spectral=False)\n"
    )
    assert _run_python(code).splitlines()[-1] == frozen


def test_readme_names_only_exported_pieces():
    """Every backticked name in the README's "Lower-level pieces" paragraph
    resolves on the package, so the docs cannot keep naming a deleted export."""
    readme = README.read_text()
    start = readme.index("Lower-level pieces are exported too:")
    paragraph = readme[start : readme.index("\n\n", start)]
    names = re.findall(r"`([A-Za-z_][\w.]*)", paragraph)
    assert "rc_step_value" in names and "steady_state_metrics" in names
    missing = []
    for name in names:
        try:
            functools.reduce(getattr, name.split("."), ehadc)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_readme_config_table_names_every_key():
    """The README's Configuration table has one row per config key, each
    written out in full."""
    readme = README.read_text()
    start = readme.index("| Key | Default | Meaning |")
    rows = readme[start : readme.index("\n\n", start)].splitlines()[2:]
    keys = [key for row in rows for key in re.findall(r"`([^`]*)`", row.split("|")[1])]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(config.KEY_TABLE)


def test_readme_python_examples_run():
    """Every python block in the README runs against the current API."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_modules_import_only_the_stdlib_numpy_and_the_package():
    """No runtime dependency beyond numpy."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "ehadc"}
    foreign = []
    for path in sorted(Path(ehadc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert foreign == []


def test_importing_the_cli_leaves_out_multiprocessing():
    """No command pays for loading multiprocessing: a parallel sweep forks
    its workers with os.fork."""
    code = "import sys, ehadc.cli; print('multiprocessing' in sys.modules)"
    assert _run_python(code) == "False"


def test_a_parallel_sweep_loads_no_module_the_cli_has_not():
    """The fork fan-out of a --jobs 2 sweep imports nothing beyond what
    importing the CLI loads (a process pool imported 34 more modules)."""
    code = (
        "import functools, sys, ehadc.cli\n"
        "from ehadc.config import load_config, scenario_with\n"
        "from ehadc.engine import sweep\n"
        "before = set(sys.modules)\n"
        f"cfg = load_config({str(ROOT / 'configs' / 'lowfreq.cfg')!r})\n"
        "sweep(functools.partial(scenario_with, cfg, 'alpha'), 'alpha', [0.1, 0.2], jobs=2, spectral=False)\n"
        "print(sorted(set(sys.modules) - before))"
    )
    assert _run_python(code) == "[]"


def test_only_the_trace_writer_loads_the_float_text_kernel():
    """The bench's setup probe (import ehadc, then load and build a config)
    and importing the CLI leave ehadc.floattext unloaded; writing a trace
    loads it, after the simulation's memory peak."""
    code = (
        "import sys, ehadc, ehadc.cli\n"
        "from ehadc.config import build_scenario, load_config\n"
        f"build_scenario(load_config({str(ROOT / 'configs' / 'lowfreq.cfg')!r}))\n"
        "print('ehadc.floattext' in sys.modules)"
    )
    assert _run_python(code) == "False"


def _bench_trees() -> dict[str, ast.Module]:
    """The parsed bench/ scripts, plus each string constant in them that is
    itself Python importing ehadc (code they hand to a child interpreter)."""
    trees = {}
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        trees[path.name] = tree
        for node in ast.walk(tree):
            code = node.value if isinstance(node, ast.Constant) else None
            if isinstance(code, str) and "import" in code and "ehadc" in code:
                try:
                    trees[f"{path.name}:{node.lineno}"] = ast.parse(code)
                except SyntaxError:
                    pass
    return trees


def _chain(node) -> list[str] | None:
    """["a", "b", "c"] for the expression a.b.c, None for anything else."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) and names else None


def _unresolved(root, chain: list[str]) -> str | None:
    try:
        functools.reduce(getattr, chain[1:], root)
    except AttributeError:
        return ".".join(chain)
    return None


def _imported_modules(tree: ast.Module, missing: list[str]) -> dict[str, types.ModuleType]:
    """Local name -> ehadc module, from running each import of the package
    in tree; an import that fails is appended to missing."""
    namespace = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            roots = [node.module or ""]
        else:
            continue
        if any(root.split(".")[0] == "ehadc" for root in roots):
            try:
                exec(ast.unparse(node), namespace)
            except ImportError as exc:
                missing.append(f"{ast.unparse(node)}: {exc}")
    return {
        name: value
        for name, value in namespace.items()
        if isinstance(value, types.ModuleType) and value.__name__.split(".")[0] == "ehadc"
    }


def test_bench_reads_only_what_the_package_has(lowfreq_scenario, lowfreq_run):
    """The scripts under bench/ run against the checkout's package. Every
    ehadc module attribute they read, and every attribute chain they read
    off a scenario, a run result or its trace, resolves; so a deletion that
    would make the benchmark fail, fails here first."""
    result, _ = lowfreq_run
    objects = {"scenario": lowfreq_scenario, "result": result, "trace": result.trace}
    missing, checked = [], set()
    for name, tree in _bench_trees().items():
        modules = _imported_modules(tree, missing)
        for node in ast.walk(tree):
            chain = _chain(node)
            root = modules.get(chain[0], objects.get(chain[0])) if chain else None
            if root is None:
                continue
            checked.add(".".join(chain))
            if bad := _unresolved(root, chain):
                missing.append(f"{name}: {bad}")
    assert {"stimulus.rms_power", "frontend.rc_step_value", "cli.write_trace_csv"} <= checked
    assert {"ehadc.__version__", "scenario.steady_tol", "result.trace"} <= checked
    assert missing == []


def test_trace_has_the_arrays_the_bench_hashes(lowfreq_run):
    """bench/api_loop.py hashes the bytes of these trace arrays."""
    digest = next(
        node
        for node in ast.walk(_bench_trees()["api_loop.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "digest"
    )
    hashed = {
        node.attr
        for node in ast.walk(digest)
        if isinstance(node, ast.Attribute) and _chain(node) == ["trace", node.attr]
    }
    assert len(hashed) == 8
    trace = lowfreq_run[0].trace
    assert all(isinstance(getattr(trace, name, None), np.ndarray) for name in hashed)
