"""The names the benchmark reaches into ``assoclab`` by must keep resolving.

``perfbench/tracing.py`` wraps callables by (module, class, attribute), and
the workloads and the warm-up import ``assoclab`` names or call through
module attributes.  A refactor that renames one of them breaks the
benchmark without failing any other test, so these are checked here by
reading the files, without running any workload.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


WRAPPED = _load_tracing().WRAPPED


@pytest.mark.parametrize("entry", WRAPPED, ids=[f"{e[0]}:{e[3]}" for e in WRAPPED])
def test_traced_callable_resolves(entry):
    _, modname, clsname, attr, _ = entry
    mod = importlib.import_module(f"assoclab.{modname}")
    if clsname is None:
        assert callable(getattr(mod, attr))
    else:
        # the tracer patches the class's own attribute, so it must not be inherited
        assert callable(vars(getattr(mod, clsname))[attr])


def _resolve(dotted: str):
    """The object a dotted name refers to, importing its longest module prefix."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part)
        return obj
    raise ModuleNotFoundError(dotted)


def _assoclab_names(path: Path) -> list[str]:
    """Dotted names of what a file imports from assoclab or reads off those imports."""
    tree = ast.parse(path.read_text())
    imported: dict[str, str] = {}  # local name -> dotted assoclab name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("assoclab"):
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    names = list(imported.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported):
            names.append(f"{imported[node.value.id]}.{node.attr}")
    return names


@pytest.mark.parametrize("filename", ["workloads.py", "warmup.py"])
def test_benchmark_imports_resolve(filename):
    names = _assoclab_names(PERFBENCH / filename)
    assert names
    for dotted in names:
        _resolve(dotted)  # raises if the name is gone
