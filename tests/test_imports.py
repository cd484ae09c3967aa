"""The package's imports: no module of ``mmsde`` or of the tests imports a
name that it never reads or lists in ``__all__`` a name that it does not bind,
the set-up import path loads neither the process pool nor scipy, and every
name that the benchmark's tracer patches is bound."""

import ast
import importlib.util
import sys

import pytest

from conftest import ROOT, bench_config, run_python

MODULES = sorted((ROOT / "src" / "mmsde").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _name(path) -> str:
    """``dir/name`` of a module: ``mmsde/config.py``, ``tests/conftest.py``."""
    return f"{path.parent.name}/{path.name}"


def import_faults(path) -> list:
    """A module may import no name that it never reads (``__init__.py``
    imports to re-export, so it is left out), and its ``__all__`` may list no
    name that it neither defines nor imports at module level, or ``from
    mmsde.<module> import *`` fails."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported.setdefault((alias.asname or alias.name).partition(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    faults = [] if path.name == "__init__.py" else [
        f"{_name(path)}:{line}: {name} is imported but never read"
        for name, line in imported.items() if name not in read]
    bound, listed = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                listed = [(node.lineno, name) for name in ast.literal_eval(node.value)]
    return faults + [f"{_name(path)}:{line}: __all__ lists {name}, which it neither defines "
                     "nor imports" for line, name in listed if name not in bound]


@pytest.mark.parametrize("path", MODULES, ids=_name)
def test_module_reads_its_imports_and_binds_its_all(path):
    assert import_faults(path) == []


def test_set_up_path_loads_no_process_pool_and_no_scipy():
    # the benchmark's setup_s times a fresh interpreter that imports the
    # package and builds a config and a harness context; the process pool
    # (concurrent.futures, multiprocessing) and scipy load only where they are
    # used, so a module-level import of either fails here without timing noise
    done = run_python("-X", "importtime", "-c", "from mmsde import config, harness")
    assert done.returncode == 0, done.stderr
    loaded = [line for line in done.stderr.splitlines()
              if line.rpartition("|")[2].strip().partition(".")[0]
              in ("concurrent", "multiprocessing", "scipy")]
    assert loaded == []


def benchmark_tracer(monkeypatch):
    """A ``Tracer`` of ``bench/tracing.py``, loaded without writing bytecode
    (``bench/`` is only read)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_the_benchmark_tracer_binds_every_name_it_patches(monkeypatch):
    # bench/tracing.py patches names of mmsde's modules by getattr, so a name
    # that a refactor removes (harness binds solve_step for it alone) breaks
    # the traced benchmark run while the untraced one still passes
    tracer = benchmark_tracer(monkeypatch)
    try:
        tracer.install()
        patched = list(tracer._saved)
        assert patched and all(getattr(owner, name) is not original
                               for owner, name, original in patched)
    finally:
        tracer.uninstall()
    assert not tracer._saved
    assert all(getattr(owner, name) is original for owner, name, original in patched)


def test_the_traced_verify_suite_times_both_checkers(monkeypatch):
    # the tracer times the Skorokhod checkers through the names harness binds;
    # a checker call that bypasses them would read 0 in a traced benchmark run
    # (verify.skorokhod.verify_solution_s and pair_report_s) without failing it
    from mmsde import harness
    from mmsde.config import parse_config_text

    cfg = parse_config_text(bench_config("box_dyadic"))
    tracer = benchmark_tracer(monkeypatch)
    try:
        tracer.install()
        with tracer.study("verify"):
            report = harness.verify_suite(cfg, samples=100)
    finally:
        tracer.uninstall()
    assert all(check.passed for check in report.values())
    calls = tracer.stats["verify"].calls
    assert calls["skorokhod.verify_solution"] >= 1 and calls["skorokhod.pair_report"] >= 1
