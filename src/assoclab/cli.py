"""Command line front end: compute, check, cache and report.

Exit codes: 0 success, 1 an internal error, 2 a requested check or
tolerance was not met (a failed check, an unconverged quadrature, an MZV or
KZ expansion that cannot reach its tolerance, a degree outside t_3, an
associator check such as a log that is not Lie within tolerance), 3 an
input/output or environment problem.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .associator import (Associator, AssociatorError, TauFamily, check_hexagon,
                         check_pentagon, etingof_coefficients, interpolate, pin_lambda)
from .graphcx import (NAMED_GRAPHS, GraphLinComb, differential, divergence,
                      gc_bracket, grt_check, phi_map, psi3_normalized)
from .kz import KZError, MzvError, anti_kz, build_phi_kz, mzv
from .tangent import NotInT3Error
from .confint import (QuadratureError, QuadratureSpec, RECORDED_LAMBDA_RATIO,
                      TETRA_PREFACTOR, TETRA_SYMMETRY_FACTOR, tetra_type1_integral,
                      tetra_weight_from_type1)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CHECK = 2
EXIT_IO = 3


def _cache_dir(args) -> Path:
    base = args.cache_dir or os.environ.get("ASSOCLAB_CACHE") or ".assoclab-cache"
    p = Path(base)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IOError(f"cannot create cache dir {p}: {e}")
    return p


def _report(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, default=str)
    if out_path:
        try:
            Path(out_path).write_text(text + "\n")
        except OSError as e:
            print(f"error: cannot write {out_path}: {e}", file=sys.stderr)
            raise IOError(str(e))
    print(text)


def _table(rows: list[tuple[str, str]]) -> None:
    width = max((len(r[0]) for r in rows), default=10)
    for name, val in rows:
        print(f"  {name:<{width}}  {val}", file=sys.stderr)


def _read_cached(path: Path, *keys: str) -> dict | None:
    """The cached payload at ``path``; None when it is missing or unreadable.

    A truncated or corrupt file counts as missing, so the caller computes
    the value again and overwrites it.
    """
    try:
        data = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        return None
    return data if isinstance(data, dict) and all(k in data for k in keys) else None


def _write_cached(path: Path, payload: dict) -> None:
    """Write ``payload`` so that readers see either the old file or all of the new one."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload, default=str))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _phi_kz_cached(order: int, m_order: int, tol: float, cache: Path):
    path = cache / f"phi-kz-N{order}-v{__version__}-M{m_order}-tol{tol:.1e}.json"
    data = _read_cached(path, "associator", "report")
    if data is not None:
        return Associator.from_json(data["associator"]), data["report"]
    phi, report = build_phi_kz(order, m_order, tol)
    _write_cached(path, {"associator": phi.to_json(), "report": report})
    return phi, report


def _mzv_cached(index: tuple[int, ...], tol: float, cache: Path) -> float:
    key = "mzv-" + "-".join(map(str, index)) + f"-v{__version__}-tol{tol:.1e}.json"
    path = cache / key
    data = _read_cached(path, "value")
    if data is not None:
        return data["value"]
    val = mzv(index, tol)
    _write_cached(path, {"index": list(index), "value": val})
    return val


def cmd_kz(args) -> int:
    cache = _cache_dir(args)
    t0 = time.time()
    phi, report = _phi_kz_cached(args.order, args.series_order, args.tol, cache)
    residuals = {
        "grouplike": phi.grouplike_residual(),
        "lie-log": phi.lie_log_residual(),
        "duality": phi.duality_residual(),
        "pentagon": check_pentagon(phi, args.tol),
        "hexagon": check_hexagon(phi, args.tol),
        "constancy": report["constancy"],
    }
    ok = all(v <= args.tol for v in residuals.values())
    payload = {
        "command": "kz",
        "version": __version__,
        "order": args.order,
        "series_order": args.series_order,
        "tol": args.tol,
        "residuals": residuals,
        "passed": ok,
        "seconds": time.time() - t0,
        "associator": phi.to_json(),
    }
    _report(payload, args.out)
    _table([(k, f"{v:.3e}") for k, v in residuals.items()])
    return EXIT_OK if ok else EXIT_CHECK


def cmd_interp(args) -> int:
    cache = _cache_dir(args)
    t0 = time.time()
    phi, _ = _phi_kz_cached(args.order, args.series_order, args.tol, cache)
    psi3 = psi3_normalized(args.order)
    lam, pin_resid = pin_lambda(phi, psi3)
    fam = TauFamily([(3, psi3.scale(lam))])
    t_target = Fraction(args.t).limit_denominator(10**6)
    phi_t = interpolate(phi, Fraction(0), t_target, fam)
    checks = {"pin-degree3-residual": pin_resid}
    if t_target == 1:
        target = anti_kz(phi)
        for d in range(4, args.order + 1):
            checks[f"anti-kz-degree{d}"] = phi_t.series.degree_part(d).distance(
                target.series.degree_part(d))
    elif t_target == Fraction(1, 2):
        # the midpoint of the family (Alekseev-Torossian) is even: Phi(-X, -Y) = Phi(X, Y)
        checks["flip-symmetry"] = phi_t.series.distance(phi_t.flip_signs().series)
    ok = all(v <= max(args.tol, 1e-8) for v in checks.values())
    payload = {
        "command": "interp",
        "version": __version__,
        "t": str(t_target),
        "lambda": {"re": lam.real, "im": lam.imag},
        "checks": checks,
        "passed": ok,
        "seconds": time.time() - t0,
        "associator": phi_t.to_json(),
    }
    _report(payload, args.out)
    _table([(k, f"{v:.3e}") for k, v in checks.items()])
    return EXIT_OK if ok else EXIT_CHECK


def cmd_etingof(args) -> int:
    t0 = time.time()
    c_a, c_b = etingof_coefficients()
    payload = {
        "command": "etingof",
        "version": __version__,
        "c_a": [str(c_a.numerator), str(c_a.denominator)],
        "c_b": [str(c_b.numerator), str(c_b.denominator)],
        "equal": c_a == c_b,
        "strong_form_fails": c_a != c_b,
        "seconds": time.time() - t0,
    }
    _report(payload, args.out)
    _table([("c_a", str(c_a)), ("c_b", str(c_b)),
            ("strong form fails", str(c_a != c_b))])
    return EXIT_OK


def _load_graph(args) -> GraphLinComb:
    name = args.graph
    if name in NAMED_GRAPHS:
        return NAMED_GRAPHS[name]()
    if args.infile:
        try:
            data = json.loads(Path(args.infile).read_text())
            vertices, edges = data["vertices"], [tuple(e) for e in data["edges"]]
        except (ValueError, KeyError, TypeError) as e:
            raise IOError(f"cannot read a graph from {args.infile}: {type(e).__name__}: {e}")
        if not (isinstance(vertices, int) and vertices >= 1) or any(
                len(e) != 2 or not all(isinstance(v, int) and 1 <= v <= vertices for v in e)
                for e in edges):
            raise IOError(f"{args.infile}: need vertices >= 1 and edges between "
                          f"vertices 1..{vertices}, got {edges}")
        return GraphLinComb.single(vertices, edges)
    raise IOError(f"unknown graph {name!r} and no --in file")


def cmd_gc(args) -> int:
    t0 = time.time()
    g = _load_graph(args)
    payload: dict = {"command": "gc", "action": args.action, "version": __version__,
                     "graph": args.graph}
    ok = True
    if args.action == "cocycle":
        d = differential(g)
        payload["closed"] = d.is_zero()
        payload["differential_terms"] = len(d.terms)
        ok = d.is_zero()
    elif args.action == "delta":
        d = differential(g)
        payload["differential"] = d.to_json()
    elif args.action == "divergence":
        div = divergence(g)
        payload["divergence"] = div.to_json()
        payload["divergence_free"] = div.is_zero()
    elif args.action == "bracket-self":
        payload["bracket"] = gc_bracket(g, g).to_json()
    elif args.action == "phi":
        elem = phi_map(g, args.order)
        res = grt_check(elem.psi)
        payload["sder_pair"] = elem.avatar().to_json()
        payload["psi"] = elem.psi.to_json()
        payload["grt_residuals"] = {"antisymmetry": res[0], "hexagon": res[1],
                                    "pentagon": res[2]}
        ok = all(r == 0 for r in res)
    else:
        raise IOError(f"unknown gc action {args.action!r}")
    payload["passed"] = ok
    payload["seconds"] = time.time() - t0
    _report(payload, args.out)
    return EXIT_OK if ok else EXIT_CHECK


def cmd_weights(args) -> int:
    t0 = time.time()
    if args.graph not in ("tetrahedron", "wheel3"):
        raise IOError("weight quadrature is implemented for the tetrahedron")
    spec = QuadratureSpec(tol=args.tol, max_cells=args.budget)
    base = tetra_type1_integral(spec)
    w = tetra_weight_from_type1(base, args.t)
    payload = {
        "command": "weights",
        "version": __version__,
        "graph": args.graph,
        "t": args.t,
        "type1": base.to_json(),
        "weight": w.to_json(),
        "symmetry_factor": TETRA_SYMMETRY_FACTOR,
        "prefactor": [str(TETRA_PREFACTOR.numerator), str(TETRA_PREFACTOR.denominator)],
        "lambda_ratio": [str(RECORDED_LAMBDA_RATIO.numerator),
                         str(RECORDED_LAMBDA_RATIO.denominator)],
        "seconds": time.time() - t0,
    }
    _report(payload, args.out)
    _table([("type-I", f"{base.value:.8f} +- {base.error:.1e}"),
            ("weight", f"{w.value:.8f} +- {w.error:.1e}")])
    if not base.converged:
        print(f"error: the type-I integral did not converge: error estimate "
              f"{base.error:.1e} > tol {args.tol:.1e} after {base.cells} cells "
              f"(budget {args.budget})", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_check(args) -> int:
    """Small always-on battery: exact algebra identities at desk scale."""
    t0 = time.time()
    from .ncalg import lyndon_words, witt_dimension
    from .graphcx import tetrahedron, ihara_bracket
    results: dict[str, bool] = {}
    results["witt-counts"] = all(
        len(lyndon_words(k, d)) == witt_dimension(k, d)
        for k in (2, 3) for d in range(1, 7))
    results["tetrahedron-closed"] = differential(tetrahedron()).is_zero()
    results["tetrahedron-divergence-free"] = divergence(tetrahedron()).is_zero()
    psi3 = psi3_normalized(4)
    results["psi3-grt"] = all(r == 0 for r in grt_check(psi3))
    results["ihara-self"] = ihara_bracket(psi3, psi3).is_zero()
    c_a, c_b = etingof_coefficients()
    results["product-coefficients-differ"] = c_a != c_b
    ok = all(results.values())
    payload = {"command": "check", "version": __version__, "results": results,
               "passed": ok, "seconds": time.time() - t0}
    _report(payload, args.out)
    _table([(k, "ok" if v else "FAIL") for k, v in results.items()])
    return EXIT_OK if ok else EXIT_CHECK


def cmd_mzv(args) -> int:
    cache = _cache_dir(args)
    index = tuple(int(s) for s in args.index.split(","))
    val = _mzv_cached(index, args.tol, cache)
    _report({"command": "mzv", "index": list(index), "tol": args.tol, "value": val},
            args.out)
    return EXIT_OK


def _int_at_least(lo: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return integer


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="assoclab",
                                description="associator, graph-complex and "
                                            "weight-integral computations")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, order_default=4, order_type=int):
        sp.add_argument("--order", type=order_type, default=order_default,
                        help="series truncation (word length)")
        sp.add_argument("--series-order", type=int, default=64,
                        help="number of expansion powers for the regular parts")
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--out", default=None, help="write the JSON report here")
        sp.add_argument("--cache-dir", default=None)

    sp = sub.add_parser("kz", help="build the monodromy associator and check it")
    common(sp, order_default=5)
    sp.set_defaults(func=cmd_kz)

    sp = sub.add_parser("interp", help="integrate the interpolation flow to t")
    # the flow starts in degree 3: a lower truncation has nothing to pin
    common(sp, order_type=_int_at_least(3))
    sp.add_argument("--t", type=_finite_float, default=0.5)
    sp.set_defaults(func=cmd_interp)

    sp = sub.add_parser("etingof", help="exact flow product coefficients")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_etingof)

    sp = sub.add_parser("gc", help="graph complex operations")
    sp.add_argument("action", choices=["cocycle", "delta", "divergence",
                                       "bracket-self", "phi"])
    sp.add_argument("graph", help="named graph (edge, tetrahedron, wheel5) or - with --in")
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--order", type=int, default=5)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_gc)

    sp = sub.add_parser("weights", help="configuration-space weight quadrature")
    sp.add_argument("--graph", default="tetrahedron")
    sp.add_argument("--t", type=_finite_float, default=0.5)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--budget", type=int, default=60000)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_weights)

    sp = sub.add_parser("check", help="fast exact self-checks")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("mzv", help="nested zeta value")
    sp.add_argument("index", help="comma separated exponents, e.g. 2,1")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--out", default=None)
    sp.add_argument("--cache-dir", default=None)
    sp.set_defaults(func=cmd_mzv)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MzvError, KZError, NotInT3Error, QuadratureError, AssociatorError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_CHECK
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
