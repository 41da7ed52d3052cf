"""Per-layer tracing from outside the package.

The benchmark wraps public callables of each ``assoclab`` module: methods
are replaced on their class, functions are replaced under every name an
``assoclab`` module bound them to (``associator`` imports ``taut_compose``
and friends by ``from .tangent import``, so patching ``tangent`` alone
would miss those calls).  Code outside the package sees the wrappers only
when it calls through the module (``graphcx.differential(...)``), as the
workloads do.  Each wrapped call records its inclusive time
and its self time (inclusive minus the time of wrapped calls inside it).
Coarse callables also keep a span (id, name, start, end, parent id) in
memory; hot kernels (series and scalar products, ``apply_nc``,
``canonical_form``) are only aggregated, since millions of spans would
cost more than the work they describe.  Nothing is written until
``Tracer.dump`` at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

perf_counter = time.perf_counter

# (metric name, module, class or None, attribute, keep spans)
WRAPPED = [
    ("ncalg.NCSeries.mul", "ncalg", "NCSeries", "__mul__", False),
    ("ncalg.NCSeries.mul", "ncalg", "NCSeries", "__rmul__", False),
    ("ncalg.NCSeries.add", "ncalg", "NCSeries", "__add__", False),
    ("ncalg.NCSeries.add", "ncalg", "NCSeries", "__radd__", False),
    ("ncalg.NCSeries.exp", "ncalg", "NCSeries", "exp", True),
    ("ncalg.NCSeries.log", "ncalg", "NCSeries", "log", True),
    ("ncalg.NCSeries.inverse", "ncalg", "NCSeries", "inverse", True),
    ("ncalg.NCSeries.substitute", "ncalg", "NCSeries", "substitute", True),
    ("tangent.TDerElem.apply_nc", "tangent", "TDerElem", "apply_nc", False),
    ("tangent.tder_bracket", "tangent", None, "tder_bracket", True),
    ("tangent.exp_tder", "tangent", None, "exp_tder", True),
    ("tangent.log_taut", "tangent", None, "log_taut", True),
    ("tangent.taut_compose", "tangent", None, "taut_compose", True),
    ("tangent.taut_inverse", "tangent", None, "taut_inverse", True),
    ("tangent.center_decompose_t3", "tangent", None, "center_decompose_t3", True),
    ("scalars.PolyInT.mul", "scalars", "PolyInT", "__mul__", False),
    ("scalars.PolyInT.mul", "scalars", "PolyInT", "__rmul__", False),
    ("scalars.Dual.mul", "scalars", "Dual", "__mul__", False),
    ("scalars.Dual.mul", "scalars", "Dual", "__rmul__", False),
    ("associator.check_pentagon", "associator", None, "check_pentagon", True),
    ("associator.check_hexagon", "associator", None, "check_hexagon", True),
    ("associator.to_taut3", "associator", None, "to_taut3", True),
    ("associator.pin_lambda", "associator", None, "pin_lambda", True),
    ("associator.interpolate", "associator", None, "interpolate", True),
    ("associator.grt_infinitesimal_act", "associator", None, "grt_infinitesimal_act", True),
    ("kz.build_phi_kz", "kz", None, "build_phi_kz", True),
    ("kz.mzv", "kz", None, "mzv", True),
    ("graphcx.canonical_form", "graphcx", None, "canonical_form", False),
    ("graphcx.differential", "graphcx", None, "differential", True),
    ("graphcx.grt_solution_space", "graphcx", None, "grt_solution_space", True),
    ("graphcx.ihara_bracket", "graphcx", None, "ihara_bracket", True),
    ("graphcx.phi_map", "graphcx", None, "phi_map", True),
    ("confint.adaptive_quad_2d", "confint", None, "adaptive_quad_2d", True),
    ("confint.tetra_type1_integral", "confint", None, "tetra_type1_integral", True),
    ("cli.cmd_kz", "cli", None, "cmd_kz", True),
    ("cli.cmd_interp", "cli", None, "cmd_interp", True),
    ("cli.cmd_mzv", "cli", None, "cmd_mzv", True),
    ("cli.cmd_weights", "cli", None, "cmd_weights", True),
    ("cli.cmd_gc", "cli", None, "cmd_gc", True),
]

# The pentagon and hexagon are split by the truncation order of their
# associator argument, so the cost growth from order 4 to 5 is visible.
SPLIT_BY_ORDER = {"associator.check_pentagon", "associator.check_hexagon"}
# Product statistics are also kept per span of these names.
MUL_SCOPES = {"associator.check_pentagon.N4", "associator.check_pentagon.N5"}


def _degree_histogram(terms) -> Counter:
    return Counter(map(len, terms))


class Tracer:
    """Call statistics and spans for one traced stretch of work."""

    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, incl_s, self_s, raised]
        self.counts: Counter = Counter()       # named counters
        self.spans: list[tuple] = []           # (id, name, start, end, parent id)
        self._stack: list[list] = []           # per open call: [child seconds]
        self._open_spans: list[tuple[int, str]] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, name: str, fn, keep: bool):
        stats, stack, spans, open_spans = self.stats, self._stack, self.spans, self._open_spans
        split = name in SPLIT_BY_ORDER
        pre = self._mul_pre if name == "ncalg.NCSeries.mul" else None
        post = {"ncalg.NCSeries.mul": self._mul_post,
                "confint.adaptive_quad_2d": self._quad_post}.get(name)

        def wrapper(*args, **kwargs):
            label = f"{name}.N{args[0].order}" if split else name
            if pre is not None:
                pre(args)
            if keep:
                self._next_id += 1
                span_id = self._next_id
                open_spans.append((span_id, label))
            frame = [0.0]
            stack.append(frame)
            raised = 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                st = stats.get(label)
                if st is None:
                    st = stats[label] = [0, 0.0, 0.0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                st[3] += raised
                if keep:
                    open_spans.pop()
                    parent = open_spans[-1][0] if open_spans else None
                    spans.append((span_id, label, t0, t1, parent))
            if post is not None:
                post(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _mul_pre(self, args):
        a, b = args[0], args[1]
        if type(b) is not type(a):  # scalar times series: no term pairs
            return
        ha, hb = _degree_histogram(a.terms), _degree_histogram(b.terms)
        order = a.order
        in_order = sum(ca * cb for p, ca in ha.items() for q, cb in hb.items()
                       if p + q <= order)
        every = len(a.terms) * len(b.terms)
        c = self.counts
        c["mul.pairs_all"] += every
        c["mul.pairs_in_order"] += in_order
        for _, label in self._open_spans:
            if label in MUL_SCOPES:
                c[f"{label}.pairs_all"] += every
                c[f"{label}.pairs_in_order"] += in_order

    def _mul_post(self, args, kwargs, result):
        if type(args[1]) is type(args[0]):
            self.counts["mul.terms_out"] += len(result.terms)

    def _quad_post(self, args, kwargs, result):
        spec = args[5] if len(args) > 5 else kwargs["spec"]
        cells = result[2]
        self.counts["quad.cells"] += cells
        self.counts["quad.evals"] += cells * (spec.order ** 2 + spec.order_fine ** 2)

    # -- installing --------------------------------------------------------
    def install(self) -> None:
        """Replace every listed callable by its recording wrapper."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "assoclab" or n.startswith("assoclab.")}
        for name, modname, clsname, attr, keep in WRAPPED:
            mod = modules[f"assoclab.{modname}"]
            if clsname is not None:
                cls = getattr(mod, clsname)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, orig, keep))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, keep)
            for m in modules.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- results -----------------------------------------------------------
    def stat(self, label: str) -> list:
        return self.stats.get(label, [0, 0.0, 0.0, 0])

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **meta,
            "stats": {k: {"calls": v[0], "s": v[1], "self_s": v[2], "raised": v[3]}
                      for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                      for i, n, s, e, p in self.spans],
        }
        path.write_text(json.dumps(payload) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced job, named ``<module>.<callable>.<stat>``."""
    m: dict[str, float] = {}
    c = tr.counts

    mul = tr.stat("ncalg.NCSeries.mul")
    m["ncalg.NCSeries.mul.calls"] = mul[0]
    m["ncalg.NCSeries.mul.self_s"] = mul[2]
    m["ncalg.NCSeries.mul.terms_out"] = c["mul.terms_out"]
    m["ncalg.NCSeries.mul.pairs_all"] = c["mul.pairs_all"]
    m["ncalg.NCSeries.mul.pairs_in_order"] = c["mul.pairs_in_order"]
    m["ncalg.NCSeries.mul.yield"] = _ratio(c["mul.pairs_in_order"], c["mul.pairs_all"])
    add = tr.stat("ncalg.NCSeries.add")
    m["ncalg.NCSeries.add.calls"] = add[0]
    m["ncalg.NCSeries.add.self_s"] = add[2]
    for meth in ("exp", "log", "inverse", "substitute"):
        st = tr.stat(f"ncalg.NCSeries.{meth}")
        m[f"ncalg.NCSeries.{meth}.calls"] = st[0]
        m[f"ncalg.NCSeries.{meth}.s"] = st[1]

    st = tr.stat("tangent.TDerElem.apply_nc")
    m["tangent.TDerElem.apply_nc.calls"] = st[0]
    m["tangent.TDerElem.apply_nc.self_s"] = st[2]
    for fn in ("tder_bracket", "exp_tder", "log_taut", "taut_compose", "taut_inverse",
               "center_decompose_t3"):
        st = tr.stat(f"tangent.{fn}")
        m[f"tangent.{fn}.calls"] = st[0]
        m[f"tangent.{fn}.s"] = st[1]

    for cls in ("PolyInT", "Dual"):
        st = tr.stat(f"scalars.{cls}.mul")
        m[f"scalars.{cls}.mul.calls"] = st[0]
        m[f"scalars.{cls}.mul.self_s"] = st[2]

    for fn in ("check_pentagon", "check_hexagon"):
        for n in (4, 5):
            m[f"associator.{fn}.s.N{n}"] = tr.stat(f"associator.{fn}.N{n}")[1]
    for n in (4, 5):
        scope = f"associator.check_pentagon.N{n}"
        m[f"{scope}.mul_yield"] = _ratio(c[f"{scope}.pairs_in_order"], c[f"{scope}.pairs_all"])
    for fn in ("to_taut3", "pin_lambda", "interpolate"):
        m[f"associator.{fn}.s"] = tr.stat(f"associator.{fn}")[1]
    st = tr.stat("associator.grt_infinitesimal_act")
    m["associator.grt_infinitesimal_act.calls"] = st[0]
    m["associator.grt_infinitesimal_act.s"] = st[1]

    st = tr.stat("kz.build_phi_kz")
    m["kz.build_phi_kz.calls"] = st[0]
    m["kz.build_phi_kz.s"] = st[1]
    st = tr.stat("kz.mzv")
    m["kz.mzv.calls"] = st[0]
    m["kz.mzv.failed"] = st[3]
    m["kz.mzv.s"] = st[1]

    st = tr.stat("graphcx.canonical_form")
    m["graphcx.canonical_form.calls"] = st[0]
    m["graphcx.canonical_form.self_s"] = st[2]
    m["graphcx.canonical_form.per_s"] = _ratio(st[0], st[1])
    for fn in ("differential", "grt_solution_space", "ihara_bracket", "phi_map"):
        st = tr.stat(f"graphcx.{fn}")
        m[f"graphcx.{fn}.calls"] = st[0]
        m[f"graphcx.{fn}.s"] = st[1]

    st = tr.stat("confint.adaptive_quad_2d")
    m["confint.adaptive_quad_2d.calls"] = st[0]
    m["confint.adaptive_quad_2d.s"] = st[1]
    m["confint.adaptive_quad_2d.cells"] = c["quad.cells"]
    m["confint.adaptive_quad_2d.cells_per_s"] = _ratio(c["quad.cells"], st[1])
    m["confint.adaptive_quad_2d.evals"] = c["quad.evals"]
    st = tr.stat("confint.tetra_type1_integral")
    m["confint.tetra_type1_integral.calls"] = st[0]
    m["confint.tetra_type1_integral.s"] = st[1]

    cli_self = 0.0
    for cmd in ("kz", "interp", "mzv", "weights", "gc"):
        st = tr.stat(f"cli.cmd_{cmd}")
        m[f"cli.cmd_{cmd}.s"] = st[1]
        cli_self += st[2]
    m["cli.self_s"] = cli_self
    m["cli.cache.hits"] = c["cli.cache.hits"]
    m["cli.cache.misses"] = c["cli.cache.misses"]
    m["cli.report_bytes"] = c["cli.report_bytes"]
    return m
