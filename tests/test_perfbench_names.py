"""The names the benchmark reaches into ``assoclab`` by must keep resolving.

``perfbench/tracing.py`` wraps callables by (module, class, attribute), and
the workloads and the warm-up import ``assoclab`` names or call through
module attributes.  A refactor that renames one of them breaks the
benchmark without failing any other test, so these are checked here by
reading the files, without running any workload.  So are the command
lines the workloads pass to the CLI: each must still parse.  One op, the
associator workload's order-5 probe, is run and checked as the benchmark
runs and checks it, and one small ``kz`` runs under the benchmark's tracer.
"""

import ast
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()
WRAPPED = tracing.WRAPPED


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


# -- the benchmark's command lines ----------------------------------------------------

def _module_constant(path: Path, name: str):
    """Value of a module-level constant, evaluated from its source with only Fraction in scope."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            expr = compile(ast.Expression(node.value), str(path), "eval")
            return eval(expr, {"__builtins__": {}, "Fraction": Fraction})
    raise LookupError(f"{name} not found in {path.name}")


def _mzv_indices() -> list[tuple]:
    """The keys of the closed-form table that ``refs.MZV_INDICES`` sorts."""
    tree = ast.parse((PERFBENCH / "refs.py").read_text())
    fn = next(n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name == "_mzv_closed_forms")
    table = next(n.value for n in ast.walk(fn) if isinstance(n, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "forms" for t in n.targets))
    return [ast.literal_eval(k) for k in table.keys]


def _benchmark_command_lines() -> list[list[str]]:
    """What ``workloads.py`` passes to ``Context.cli``, with the options that adds."""
    workloads = PERFBENCH / "workloads.py"
    cached = [["kz", "--order", "4"], ["kz", "--order", "5"], ["interp", "--order", "5", "--t", "1"]]
    cached += [["interp", "--order", "4", "--t", repr(float(t))]
               for t in _module_constant(workloads, "FLOW_TIMES")]
    cached += [["mzv", ",".join(map(str, index))] for index in _mzv_indices()]
    tol = _module_constant(workloads, "WEIGHT_TOL")
    uncached = [["weights", "--t", repr(t), "--tol", repr(tol), "--budget", "200000"]
                for t in _module_constant(workloads, "WEIGHT_TIMES")]
    uncached.append(["gc", "phi", "tetrahedron", "--order", "5"])
    out = ["--out", "report.json"]
    return [a + out + ["--cache-dir", "cache"] for a in cached] + [a + out for a in uncached]


@pytest.mark.parametrize("argv", _benchmark_command_lines(), ids=" ".join)
def test_benchmark_command_lines_parse(argv):
    from assoclab.cli import build_parser
    args = build_parser().parse_args(argv)
    assert args.command == argv[0] and args.out == "report.json"
    if "--t" in argv:
        assert args.t == float(argv[argv.index("--t") + 1])


# -- the benchmark's own check ------------------------------------------------------------

def test_associator_probe_passes_the_benchmark_check(tmp_path, monkeypatch):
    # the associator workload's once-per-run op (interp --order 5 --t 1), run
    # and checked by the benchmark's own code, so a change that breaks it
    # fails here and not only in a benchmark verdict
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.Associator().after_run(workloads.Context(tmp_path))
    assert ops and all(op.ok for op in ops), [(op.name, op.detail) for op in ops]


def test_kz_builds_the_realisation_once_under_the_tracer(tmp_path):
    # the benchmark's --trace wraps the checks and labels them by their
    # argument's order; the install needs every traced module loaded
    importlib.import_module("assoclab.confint")
    from assoclab.cli import EXIT_OK, main
    tr = tracing.Tracer()
    try:
        tr.install()
        code = main(["kz", "--order", "3", "--series-order", "48", "--tol", "1e-8",
                     "--cache-dir", str(tmp_path), "--out", str(tmp_path / "kz.json")])
    finally:
        tr.uninstall()
    assert code == EXIT_OK
    for label in ("associator.to_taut3", "associator.check_pentagon.N3",
                  "associator.check_hexagon.N3"):
        assert tr.stat(label)[0] == 1, label
    # the inverse is exp(-u) from to_taut3, not a logarithm of g
    for label in ("tangent.log_taut", "tangent.taut_inverse"):
        assert tr.stat(label)[0] == 0, label
