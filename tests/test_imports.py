"""The package's imports: no module of ``mmsde`` imports a name that it never
reads or lists in ``__all__`` a name that it does not bind, and the set-up
import path loads neither the process pool nor scipy."""

import ast

import pytest

from conftest import ROOT, run_python

MODULES = sorted((ROOT / "src" / "mmsde").glob("*.py"))


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
        f"{path.name}:{line}: {name} is imported but never read"
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
    return faults + [f"{path.name}:{line}: __all__ lists {name}, which it neither defines "
                     "nor imports" for line, name in listed if name not in bound]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
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
