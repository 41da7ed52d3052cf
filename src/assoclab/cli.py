"""Command line front end: compute, check, cache and report.

Each ``cmd_*`` computes and returns ``(fields, rows, passed)``: the fields
of its JSON report, the rows of its stderr table, and whether its checks
held.  ``main`` is the one boundary.  It stamps ``command``, ``version``,
``passed`` and ``seconds`` on the report, writes the report to ``--out`` and
to stdout, prints the table, and maps the outcome to an exit code: 0
success, 1 an internal error (with its traceback), 2 a requested check or
tolerance was not met (a report that did not pass, or an
``assoclab.CheckError`` such as an MZV that cannot reach its tolerance or a
log that is not Lie within tolerance), 3 an input/output or environment
problem.

``kz`` checks the pentagon and the hexagon on the same ``to_taut3``
realisation.  Where ``os.fork`` exists, the hexagon runs in a forked child
while this process runs the pentagon, so the two use both cores of a
two-core host; the child is always reaped before ``kz`` returns or raises,
and on Linux it dies with a parent killed by ``SIGKILL``.
It is a plain ``os.fork`` and a pipe, not ``multiprocessing``: that package
costs about 20 ms to import, and its spawn start method would pickle the
realisation.  A ``kz`` report carries a ``profile`` of its stage times
(the hexagon's timed in the child) and the child's peak RSS, a ``weights``
report one of its quadrature seconds and integrand evaluations.  A command
that verifies nothing reports ``"checks": {}`` and says so in its table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import tempfile
import time
import traceback
import zlib
from fractions import Fraction
from pathlib import Path

from . import CheckError, __version__
from .associator import (Associator, check_hexagon, check_pentagon, etingof_coefficients,
                         pin_lambda, to_taut3)
from .graphcx import (NAMED_GRAPHS, GraphError, GraphLinComb, differential, divergence,
                      gc_bracket, grt_check, grt_generator, ihara_bracket, phi_map,
                      psi3_normalized, tetrahedron)
from .kz import build_phi_kz, mzv
from .ncalg import lyndon_words, witt_dimension
from .scalars import scalar_from_json

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CHECK = 2
EXIT_IO = 3
PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>
# the text row of a report that passes with "checks": {}, as it verifies nothing
NOTHING_CHECKED = ("checks", "none: nothing was verified, so passing says nothing")
# names the cache files, so other code never reads them (crc32: hashlib loads OpenSSL)
SOURCE_DIGEST = "%08x" % zlib.crc32(b"".join(
    p.read_bytes() for p in sorted(Path(__file__).parent.glob("*.py"))))


def _ratio(q: Fraction) -> list[str]:
    return [str(q.numerator), str(q.denominator)]


def _cache_dir(args) -> Path:
    base = args.cache_dir or os.environ.get("ASSOCLAB_CACHE") or ".assoclab-cache"
    p = Path(base)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IOError(f"cannot create cache dir {p}: {e}")
    return p


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


def _cached(path: Path, compute, decode):
    """``decode`` of the payload cached at ``path``, or else a fresh value.

    A missing or unparsable file is a miss, and so is a payload that
    ``decode`` rejects with ``KeyError``, ``TypeError`` or ``ValueError``.
    On a miss ``compute`` returns the value and its payload; the payload
    overwrites ``path`` and the value itself is returned, so a miss hands
    back exactly what was computed.
    """
    try:
        return decode(json.loads(path.read_text()))
    except (FileNotFoundError, KeyError, TypeError, ValueError):
        pass
    value, payload = compute()
    _write_cached(path, payload)
    return value


def _phi_kz_cached(order: int, m_order: int, tol: float, cache: Path):
    def compute():
        phi, report = build_phi_kz(order, m_order, tol)
        return (phi, report), {"associator": phi.to_json(), "report": report}

    def decode(data):
        phi = Associator.from_json(data["associator"])
        if phi.order != order:
            raise ValueError(f"cached associator has order {phi.order}, not {order}")
        return phi, {name: float(v) for name, v in dict(data["report"]).items()}

    return _cached(cache / f"phi-kz-N{order}-{SOURCE_DIGEST}-M{m_order}-tol{tol:.1e}.json",
                   compute, decode)


def _mzv_cached(index: tuple[int, ...], tol: float, cache: Path) -> tuple[float, float]:
    """``mzv``'s (value, error bound), both kept in the cache file."""
    def compute():
        value, bound = mzv(index, tol)
        return (value, bound), {"index": list(index), "value": value, "error_bound": bound}

    name = "mzv-" + "-".join(map(str, index)) + f"-{SOURCE_DIGEST}-tol{tol:.1e}.json"
    return _cached(cache / name, compute,
                   lambda data: (float(data["value"]), float(data["error_bound"])))


def _hexagon_child(w: int, g, g_inv, parent: int) -> None:
    """The forked child: send the hexagon's outcome down the pipe ``w``, then end the process.

    The outcome is (ok, residual or exception, the exception's traceback,
    seconds, peak RSS in MB).  The child leaves by ``os._exit`` whatever
    happens, so it flushes none of the parent's stdio buffers and runs none
    of its exit handlers.  On Linux it asks to be killed when its parent
    dies, which the parent cannot arrange if it is killed by ``SIGKILL``;
    ``parent`` is the parent's pid taken before the fork, so a parent that
    died before the request was made is seen too.
    """
    code = 1
    try:
        if sys.platform.startswith("linux"):
            import ctypes
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
            prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:
            return
        import gc
        import pickle
        import resource
        # inherited objects stay out of the child's collections: no parent
        # finalizer runs here, and no page is copied for a collector's write
        gc.freeze()
        t0 = time.perf_counter()
        try:
            outcome = [True, check_hexagon(g, g_inv), ""]
        except BaseException as e:  # noqa: BLE001 - raised again in the parent
            outcome = [False, e, "".join(traceback.format_exception(type(e), e, e.__traceback__))]
        outcome += [time.perf_counter() - t0,
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        with os.fdopen(w, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        code = 0
    finally:
        os._exit(code)


def _pentagon_and_hexagon(g, g_inv) -> tuple[float, float, dict]:
    """``check_pentagon(g)``, ``check_hexagon(g, g_inv)`` and their profile fields.

    Where ``os.fork`` exists the hexagon runs in a forked child while this
    process runs the pentagon: the child shares ``g`` and ``g_inv`` without
    copying them and pipes back only its pickled outcome.  An exception the
    child raises is raised here, a child that ends without an outcome is a
    ``RuntimeError``, and the child is reaped (killed first, if this process
    raised) before this returns or raises.  Without ``os.fork`` the two
    checks run here, one after the other.
    """
    if not hasattr(os, "fork"):
        t0 = time.perf_counter()
        pentagon = check_pentagon(g)
        t1 = time.perf_counter()
        hexagon = check_hexagon(g, g_inv)
        return pentagon, hexagon, {"pentagon_s": t1 - t0, "hexagon_s": time.perf_counter() - t1,
                                   "hexagon_child_peak_rss_mb": None}
    import pickle
    r, w = os.pipe()
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        _hexagon_child(w, g, g_inv, parent)
    os.close(w)
    status = None
    try:
        with os.fdopen(r, "rb") as pipe:
            t0 = time.perf_counter()
            pentagon = check_pentagon(g)
            t1 = time.perf_counter()
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    try:
        ok, hexagon, child_traceback, seconds, rss_mb = pickle.loads(data)
    except Exception:  # noqa: BLE001 - nothing, or a part, came down the pipe
        raise RuntimeError(f"the hexagon child (pid {pid}) ended without a readable result: "
                           f"wait status {status}, exit code "
                           f"{os.waitstatus_to_exitcode(status)}") from None
    if not ok:
        raise hexagon from RuntimeError(f"in the hexagon child:\n{child_traceback.rstrip()}")
    return pentagon, hexagon, {"pentagon_s": t1 - t0, "hexagon_s": seconds,
                               "hexagon_child_peak_rss_mb": rss_mb}


def cmd_kz(args):
    t0 = time.perf_counter()
    phi, report = _phi_kz_cached(args.order, args.series_order, args.tol, _cache_dir(args))
    t1 = time.perf_counter()
    g, g_inv = to_taut3(phi, args.tol)
    t2 = time.perf_counter()
    pentagon, hexagon, checks_profile = _pentagon_and_hexagon(g, g_inv)
    residuals = {**report, "pentagon": pentagon, "hexagon": hexagon}
    fields = {"order": args.order, "series_order": args.series_order, "tol": args.tol,
              "residuals": residuals, "associator": phi.to_json(),
              "profile": {"phi_s": t1 - t0, "to_taut3_s": t2 - t1, **checks_profile}}
    return (fields, [(k, f"{v:.3e}") for k, v in residuals.items()],
            all(v <= args.tol for v in residuals.values()))


def _zeta_gap(lam: complex, d: int) -> float:
    """Relative gap of lambda * int_0^1 (t(1-t))^(d-1) dt from (-1/4)^j i zeta(d) / pi^d.

    Here d = 2j + 1, the integral is the Beta value ((d-1)!)^2 / (2d-1)!, and
    zeta(d) comes from ``mzv``, which shares no code with the flow.
    """
    want = (-0.25) ** (d // 2) * 1j * mzv((d,))[0] / math.pi ** d
    got = lam * (math.factorial(d - 1) ** 2 / math.factorial(2 * d - 1))
    return abs(got - want) / abs(want)


def cmd_interp(args):
    phi, _ = _phi_kz_cached(args.order, args.series_order, args.tol, _cache_dir(args))
    t_target = Fraction(args.t).limit_denominator(10**6)
    degrees = range(3, args.order + 1, 2)
    phi_t, pinned = pin_lambda(phi, [grt_generator(d, args.order) for d in degrees],
                               t_target, args.tol)
    pins, checks = {}, {}
    for d, (lam, checks[f"pin-degree{d}-residual"]) in zip(degrees, pinned):
        pins["lambda" if d == 3 else f"lambda-degree{d}"] = {"re": lam.real, "im": lam.imag}
        if d > 3:  # the test suite checks the d = 3 closed form
            checks[f"zeta-closed-form-degree{d}"] = _zeta_gap(lam, d)
    if t_target == 1:
        target = phi.flip_signs()
        for d in range(4, args.order + 1):
            checks[f"anti-kz-degree{d}"] = phi_t.series.degree_part(d).distance(
                target.series.degree_part(d))
    elif t_target == Fraction(1, 2):
        # the midpoint of the family (Alekseev-Torossian) is even: Phi(-X, -Y) = Phi(X, Y)
        checks["flip-symmetry"] = phi_t.series.distance(phi_t.flip_signs().series)
    fields = {"t": str(t_target), **pins, "checks": checks, "associator": phi_t.to_json()}
    return (fields, [(k, f"{v:.3e}") for k, v in checks.items()],
            all(v <= args.tol for v in checks.values()))


def cmd_etingof(args):
    c_a, c_b = etingof_coefficients()
    fields = {"c_a": _ratio(c_a), "c_b": _ratio(c_b), "equal": c_a == c_b,
              "strong_form_fails": c_a != c_b, "checks": {}}
    return (fields, [("c_a", str(c_a)), ("c_b", str(c_b)),
                     ("strong form fails", str(c_a != c_b)), NOTHING_CHECKED], True)


def _graph_item(entry, infile: str) -> tuple[int, list, Fraction]:
    """(vertices, edges, coefficient) of one ``{"graph", "coeff"}`` entry of an --in file."""
    graph, coeff = entry["graph"], scalar_from_json(entry["coeff"])
    if not isinstance(graph, dict) or type(coeff) is not Fraction:
        raise TypeError(f"need a graph object and a rational coefficient, got {entry!r}")
    if graph.get("external"):
        raise IOError(f"{infile}: graphs with external legs are not read")
    vertices, edges = graph["vertices"], [tuple(e) for e in graph["edges"]]
    # type(...) is int: JSON true and false load as bools, which are ints
    if not (type(vertices) is int and vertices >= 1) or any(
            len(e) != 2 or not all(type(v) is int and 1 <= v <= vertices for v in e)
            for e in edges):
        raise IOError(f"{infile}: need integer vertices >= 1 and integer edges "
                      f"between vertices 1..{vertices}, got vertices {vertices!r}, "
                      f"edges {edges}")
    return vertices, edges, coeff


def _load_graph(args) -> GraphLinComb:
    name = args.graph
    if name in NAMED_GRAPHS:
        return NAMED_GRAPHS[name]()
    if args.infile:
        try:
            data = json.loads(Path(args.infile).read_text())
            # one graph, or a combination as gc writes it: [numerator, denominator] strings
            entries = data if isinstance(data, list) else [{"graph": data, "coeff": ["1", "1"]}]
            items = [_graph_item(entry, args.infile) for entry in entries]
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
            raise IOError(f"cannot read a graph from {args.infile}: {type(e).__name__}: {e}")
        return GraphLinComb.from_raw(items)
    raise IOError(f"unknown graph {name!r} and no --in file")


def cmd_gc(args):
    g = _load_graph(args)
    fields: dict = {"action": args.action, "graph": args.graph}
    passed, rows = True, []
    if args.action == "cocycle":
        d = differential(g)
        fields["closed"] = d.is_zero()
        fields["differential_terms"] = len(d.terms)
        fields["checks"] = {"closed": len(d.terms)}  # with bound 0
        passed = len(d.terms) <= 0
        rows.append(("closed", f"{len(d.terms)} differential terms (bound 0)"))
    elif args.action == "delta":
        fields["differential"] = differential(g).to_json()
    elif args.action == "divergence":
        div = divergence(g)
        fields["divergence"] = div.to_json()
        fields["divergence_free"] = div.is_zero()
    elif args.action == "bracket-self":
        fields["bracket"] = gc_bracket(g, g).to_json()
    else:  # phi
        # a graph with L loops lands in degree L, so a lower truncation reads zero
        loops = max((len(t.edges) - t.n + 1 for t in g.terms), default=0)
        if args.order < loops:
            raise GraphError(f"--order {args.order} is below the loop order {loops} "
                             f"of {args.graph}, where its image lies")
        elem = phi_map(g, args.order)
        res = grt_check(elem.psi)
        fields["sder_pair"] = elem.pair.to_json()
        fields["psi"] = elem.psi.to_json()
        fields["grt_residuals"] = dict(zip(("antisymmetry", "hexagon", "pentagon"), res))
        passed = all(r == 0 for r in res)
        if elem.psi.is_zero():
            # a zero image meets the three conditions without testing them
            passed = False
            rows.append(("error", "psi is zero, which checks nothing: phi (pi after psi) also "
                                  "sends the loop-8 class [gamma3, gamma5], which is not exact, "
                                  "to zero, so a zero image does not tell the class"))
    if args.action in ("delta", "divergence", "bracket-self"):
        fields["checks"], rows = {}, [NOTHING_CHECKED]
    return fields, rows, passed


def cmd_weights(args):
    from . import confint  # numpy, which no other command needs
    spec = confint.QuadratureSpec(tol=args.tol, max_cells=args.budget)
    t0 = time.perf_counter()
    base = confint.tetra_type1_integral(spec)
    type1_s = time.perf_counter() - t0
    w = confint.tetra_weight_from_type1(base, args.t)
    checks = {"type1-error": base.error}
    passed = all(v <= args.tol for v in checks.values())
    fields = {
        "graph": args.graph,
        "t": args.t,
        "type1": base.to_json(),
        "weight": w.to_json(),
        "symmetry_factor": confint.TETRA_SYMMETRY_FACTOR,
        "prefactor": _ratio(confint.TETRA_PREFACTOR),
        "lambda_ratio": _ratio(confint.RECORDED_LAMBDA_RATIO),
        "checks": checks,
        "profile": {"type1_s": type1_s, "integrand_evaluations":
                    base.cells * (spec.order ** 2 + spec.order_fine ** 2)},
    }
    rows = [("type-I", f"{base.value:.8f} +- {base.error:.1e}"),
            ("weight", f"{w.value:.8f} +- {w.error:.1e}")]
    if not passed:
        rows.append(("error", f"the type-I integral did not converge: error estimate "
                              f"{base.error:.1e} > tol {args.tol:.1e} after {base.cells} "
                              f"cells (budget {args.budget})"))
    return fields, rows, passed


def cmd_check(args):
    """Small always-on battery: exact algebra identities at desk scale."""
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
    return ({"results": results}, [(k, "ok" if v else "FAIL") for k, v in results.items()],
            all(results.values()))


def cmd_mzv(args):
    value, bound = _mzv_cached(args.index, args.tol, _cache_dir(args))
    converged = bound <= args.tol
    fields = {"index": list(args.index), "tol": args.tol, "value": value,
              "error_bound": bound, "converged": converged}
    return fields, [("value", repr(value)), ("error bound", f"{bound:.1e}")], converged


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


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _unit_interval(text: str) -> float:
    # the interpolation family and the weight's (4t(1-t))^2 live on [0, 1]
    value = _finite_float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _mzv_index(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="assoclab",
                                description="associator, graph-complex and "
                                            "weight-integral computations")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    # main writes every report, so every command takes --out
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--out", default=None, help="write the JSON report here")

    def command(name, func, summary):
        sp = sub.add_parser(name, parents=[report], help=summary)
        sp.set_defaults(func=func)
        return sp

    def common(sp, order_default=4, order_type=_int_at_least(1)):
        sp.add_argument("--order", type=order_type, default=order_default,
                        help="series truncation (word length)")
        sp.add_argument("--series-order", type=_int_at_least(1), default=64,
                        help="number of expansion powers for the regular parts")
        sp.add_argument("--tol", type=_tolerance, default=1e-9)
        sp.add_argument("--cache-dir", default=None)

    common(command("kz", cmd_kz, "build the monodromy associator and check it"),
           order_default=5)

    sp = command("interp", cmd_interp, "integrate the interpolation flow to t")
    # the flow starts in degree 3: a lower truncation has nothing to pin
    common(sp, order_type=_int_at_least(3))
    sp.add_argument("--t", type=_unit_interval, default=0.5)

    command("etingof", cmd_etingof, "exact flow product coefficients")

    sp = command("gc", cmd_gc, "graph complex operations")
    sp.add_argument("action", choices=["cocycle", "delta", "divergence",
                                       "bracket-self", "phi"])
    sp.add_argument("graph", help="named graph (edge, tetrahedron, wheel5) or - with --in")
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--order", type=int, default=5)

    sp = command("weights", cmd_weights, "configuration-space weight quadrature")
    # the quadrature is implemented for the tetrahedron, which is the 3-wheel
    sp.add_argument("--graph", choices=["tetrahedron", "wheel3"], default="tetrahedron")
    sp.add_argument("--t", type=_unit_interval, default=0.5)
    sp.add_argument("--tol", type=_tolerance, default=1e-6)
    sp.add_argument("--budget", type=_int_at_least(1), default=60000)

    command("check", cmd_check, "fast exact self-checks")

    sp = command("mzv", cmd_mzv, "nested zeta value")
    sp.add_argument("index", type=_mzv_index, help="comma separated exponents, e.g. 2,1")
    sp.add_argument("--tol", type=_tolerance, default=1e-10)
    sp.add_argument("--cache-dir", default=None)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        fields, rows, passed = args.func(args)
        report = {"command": args.command, "version": __version__, **fields,
                  "passed": passed, "seconds": time.perf_counter() - t0}
        text = json.dumps(report, indent=2, default=str)
        if args.out:
            Path(args.out).write_text(text + "\n")
        print(text)
        width = max((len(name) for name, _ in rows), default=0)
        for name, value in rows:
            print(f"  {name:<{width}}  {value}", file=sys.stderr)
        return EXIT_OK if passed else EXIT_CHECK
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except CheckError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_CHECK
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
