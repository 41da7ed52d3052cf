"""The three workloads: seeded inputs, one job, and the check of every op.

A job is one unit of user work.  Its ops are the program calls; each op is
checked against a reference from ``refs`` and counts once in the run's
``attempted`` total.  An op *fails* when it delivers no result (an exit
code other than 0, an exception) or when its result misses the reference
by more than the tolerance it was asked for.  An op is *incorrect* when the
program delivered a result (exit 0 or a normal return) that is wrong: for
the quadrature ops, further from the closed form than the acceptance
suite's relative 1e-4; elsewhere, any failed delivered result.  Exit
codes and ``passed`` flags are recorded but never taken as the check.

The job's times cover the program calls only, not the checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# The traced callables are called through their modules (``graphcx.differential``,
# not a name bound here), so the wrappers ``tracing.Tracer`` installs on the
# modules see the workload's own calls too.
from assoclab import cli, graphcx, tangent
from assoclab.confint import (QuadratureSpec, at_one_vertex_closed_form,
                              at_one_vertex_coefficient)
from assoclab.graphcx import GraphLinComb, enumerate_gc_graphs
from assoclab.ncalg import LieSeries, lie_to_nc, lyndon_words
from assoclab.tangent import TDerElem

import refs
from hostspeed import WallClock

CLI_TOL = 1e-9        # the CLI's default --tol for kz and interp
MZV_TOL = 1e-10       # the CLI's default --tol for mzv
FLOW_TIMES = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
              Fraction(3, 4), Fraction(1))
WEIGHT_TIMES = (0.25, 1 / 3, 0.5, 2 / 3, 0.75)
WEIGHT_TOL = 1e-8
ONE_VERTEX_SPEC = QuadratureSpec(tol=5e-8, max_cells=40000)
# The cost of a one-vertex sample jumps with z (1,000 to 4,900 cells, even
# for z 0.002 apart), so a job evaluates a fixed panel of six points,
# whose costs are the same in every run, and one seeded z from the box
# they span (Re in [-0.2, 1.5], Im in [0.4, 0.7]; every point is >= 0.4
# from 0 and 1).  The panel is the three acceptance samples (1,849, 2,861
# and 4,589 cells) and three points of the box whose costs (2,781 to 2,929
# cells) lie at the median of sixteen seeded draws (2,955 cells), so the
# median of a job's seven samples is a typical sample whatever the seed's z.
ACCEPTANCE_Z = (0.3 + 0.4j, -0.2 + 0.7j, 1.5 + 0.5j)
PANEL_Z = ACCEPTANCE_Z + (0.86 + 0.62j, 0.72 + 0.57j, 1.4 + 0.59j)
Z_RE, Z_IM = (-0.2, 1.5), (0.4, 0.7)
# The acceptance suite's own accuracy claim for these integrals: a result
# further than this (relative) from its closed form is wrong, not merely
# short of the requested tolerance.
QUADRATURE_REL_WRONG = 1e-4
# Random derivations take their support (which Lyndon words appear) from a
# fixed generator and only their coefficients from the seed: the support
# decides the cost of a bracket or an exponential, so with it fixed every
# job does the same amount of work and the seed still changes every value.
SUPPORT_SEED = 2024


@dataclass
class Op:
    name: str
    ok: bool
    delivered: bool
    detail: str = ""
    incorrect: bool | None = None

    def __post_init__(self):
        if self.incorrect is None:
            self.incorrect = self.delivered and not self.ok


@dataclass
class JobResult:
    seconds: float = 0.0
    primary: list[float] = field(default_factory=list)
    secondary: list[float] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)


@dataclass
class CliResult:
    code: int
    report: dict | None
    seconds: float
    error: str  # last line the command wrote to stderr


class Context:
    """Per-run state: the scratch directory, the op clock and the traced counters, if any."""

    def __init__(self, scratch: Path, counts: Counter | None = None):
        self.scratch = scratch
        self.counts = counts
        self.clock = WallClock()

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))

    def cli(self, argv: list[str], cache: Path | None = None,
            cache_key: str | None = None) -> CliResult:
        """Run one CLI command in-process; stdout, report and cache go to scratch."""
        d = self.fresh_dir("op-")
        out = d / "report.json"
        argv = list(argv) + ["--out", str(out)]
        if cache is not None:
            argv += ["--cache-dir", str(cache)]
            hit = cache.is_dir() and any(p.name.startswith(cache_key) for p in cache.iterdir())
        err = io.StringIO()
        with open(d / "stdout.txt", "w") as stdout, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            code = cli.main(argv)
            seconds = self.clock.seconds(t0, perf_counter())
        report = json.loads(out.read_text()) if out.exists() else None
        if self.counts is not None:
            if cache is not None:
                self.counts["cli.cache.hits" if hit else "cli.cache.misses"] += 1
            if out.exists():
                self.counts["cli.report_bytes"] += out.stat().st_size
        lines = err.getvalue().strip().splitlines()
        return CliResult(code, report, seconds, lines[-1] if lines else "")

    def call(self, fn, *args):
        """Time one library call; returns (result or None, seconds, error text)."""
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as e:  # noqa: BLE001 - a raising op is counted as failed
            return None, self.clock.seconds(t0, perf_counter()), f"{type(e).__name__}: {e}"
        return result, self.clock.seconds(t0, perf_counter()), ""


def _undelivered(name: str, res: CliResult) -> Op | None:
    if res.code == 0 and res.report is not None:
        return None
    return Op(name, False, False, f"exit {res.code}: {res.error}")


def _max_dev(got: dict, ref: dict) -> float:
    return max(abs(got.get(w, 0) - r) for w, r in ref.items())


# A step is (role, run): ``run(ctx)`` makes one timed program call, checks
# it and returns (op, seconds); its role names the JobResult list the time
# also goes to ("primary", "secondary" or None).

def run_steps(ctx: Context, steps) -> JobResult:
    out = JobResult()
    for role, run in steps:
        op, seconds = run(ctx)
        out.ops.append(op)
        out.seconds += seconds
        if role:
            getattr(out, role).append(seconds)
    return out


def interleave(first: list, second: list) -> list:
    """Alternate two step lists.

    The machines this runs on change speed over seconds, so each timed
    metric samples the whole job window rather than one stretch of it.
    """
    out = []
    for i in range(max(len(first), len(second))):
        out += first[i:i + 1] + second[i:i + 1]
    return out


def cli_step(argv: list[str], check, cache: Path | None = None, cache_key: str | None = None):
    def run(ctx: Context):
        res = ctx.cli(argv, cache, cache_key)
        return check(res), res.seconds
    return run


# -- associator ---------------------------------------------------------------------

def check_kz(name: str, res: CliResult, order: int) -> Op:
    bad = _undelivered(name, res)
    if bad:
        return bad
    got = refs.report_coefficients(res.report["associator"])
    dev = _max_dev(got, refs.kz_reference(order))
    worst = max(res.report["residuals"].values())
    ok = dev <= CLI_TOL and worst <= CLI_TOL
    return Op(name, ok, True, f"word coefficients off by {dev:.1e}, worst residual {worst:.1e}")


def check_interp(name: str, res: CliResult, t: Fraction) -> Op:
    bad = _undelivered(name, res)
    if bad:
        return bad
    got = refs.report_coefficients(res.report["associator"])
    factor = float(refs.flow_degree3_factor(t))
    ref = {w: (c * factor if len(w) == 3 else c) for w, c in refs.kz_reference().items()}
    dev = _max_dev(got, ref)
    worst = max(res.report["checks"].values())
    ok = dev <= CLI_TOL and worst <= CLI_TOL
    return Op(name, ok, True, f"degree 2-3 coefficients off by {dev:.1e}, worst check {worst:.1e}")


def check_mzv(name: str, res: CliResult, index: tuple) -> Op:
    bad = _undelivered(name, res)
    if bad:
        return bad
    dev = abs(res.report["value"] - refs.MZV_REFERENCE[index])
    return Op(name, dev <= MZV_TOL, True, f"off by {dev:.1e}")


class Workload:
    """A workload: names of its two timed parts, set-up, jobs and once-per-run ops."""

    primary = secondary = ""
    min_jobs = 1  # a run makes at least this many jobs, even past --seconds

    def prepare(self) -> None:
        """Build inputs shared by every job (untimed)."""

    def job(self, ctx: Context, rng: random.Random) -> JobResult:
        raise NotImplementedError

    def after_run(self, ctx: Context) -> list[Op]:
        """Ops attempted once per run, after the jobs, and never timed."""
        return []


class Associator(Workload):
    """kz at orders 4 and 5, the order-4 flow to three seeded t, one seeded MZV."""

    primary = "kz_s"        # kz --order 5
    secondary = "interp_s"  # interp --order 4

    def job(self, ctx: Context, rng: random.Random) -> JobResult:
        t1, t2, t3 = (rng.choice(FLOW_TIMES) for _ in range(3))
        index = rng.choice(refs.MZV_INDICES)
        mzv_arg = ",".join(map(str, index))
        cache = ctx.fresh_dir("cache-")

        def kz(order):
            return cli_step(["kz", "--order", str(order)],
                            lambda res: check_kz(f"kz --order {order}", res, order),
                            cache, f"phi-kz-N{order}-")

        def interp(t):
            return cli_step(["interp", "--order", "4", "--t", repr(float(t))],
                            lambda res: check_interp(f"interp --order 4 --t {t}", res, t),
                            cache, "phi-kz-N4-")

        # mzv runs before kz --order 5, while the heap is small, so the
        # index a job draws does not decide the process's peak memory
        return run_steps(ctx, [
            (None, kz(4)), ("secondary", interp(t1)),
            (None, cli_step(["mzv", mzv_arg], lambda res: check_mzv(f"mzv {mzv_arg}", res, index),
                            cache, "mzv-" + "-".join(map(str, index)) + "-")),
            ("secondary", interp(t2)), ("primary", kz(5)), ("secondary", interp(t3)),
        ])

    def after_run(self, ctx: Context) -> list[Op]:
        """The order-5 flow, attempted once per run and never timed."""
        res = ctx.cli(["interp", "--order", "5", "--t", "1"], ctx.fresh_dir("cache-"),
                      "phi-kz-N5-")
        return [check_interp("interp --order 5 --t 1", res, Fraction(1))]


# -- exact-lie -----------------------------------------------------------------------

def random_tder(k: int, order: int, density: float, support: random.Random,
                values: random.Random) -> TDerElem:
    """A derivation built as acceptance criterion 9 builds its random elements."""
    comps = []
    for _ in range(k):
        coords = {}
        for d in range(1, order + 1):
            for w in lyndon_words(k, d):
                if support.random() < density:
                    coords[w] = Fraction(values.choice((-2, -1, 1, 2)))
        comps.append(lie_to_nc(LieSeries(k, order, coords), order))
    return TDerElem(k, order, comps)


def random_grt_like(order: int, support: random.Random, values: random.Random) -> LieSeries:
    coords = {}
    for d in range(2, order + 1):
        for w in lyndon_words(2, d):
            if support.random() < 0.5:
                coords[w] = Fraction(values.choice((-3, -2, -1, 1, 2, 3)))
    return LieSeries(2, order, coords)


def relabel(n: int, edges, rng: random.Random) -> tuple[list, int]:
    """Seeded vertex relabelling, edge reordering and edge reversal.

    Returns the new edge list and the parity of the edge reordering, which
    is the factor the orientation sign must pick up.
    """
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    order = list(range(len(edges)))
    rng.shuffle(order)
    out = []
    for i in order:
        u, v = edges[i]
        u, v = labels[u - 1], labels[v - 1]
        out.append((u, v) if rng.random() < 0.5 else (v, u))
    return out, refs.permutation_parity(order)


def exact_step(name: str, fn):
    """A step whose result must be exactly zero over the rationals."""
    def run(ctx: Context):
        value, seconds, error = ctx.call(fn)
        if value is None:
            return Op(name, False, False, error), seconds
        ok = refs.exactly_zero(value)
        return Op(name, ok, True, "exactly zero" if ok else "nonzero residual"), seconds
    return run


class ExactLie(Workload):
    """Exact identities of brackets, exp/log and the graph complex over the rationals."""

    primary = "lie_identities_s"
    secondary = "graph_complex_s"
    min_jobs = 2
    RELABELLINGS = 4
    # d(d(G)) of the two 10-edge graphs of enumerate_gc_graphs(6) takes about
    # 5 s each, more than the rest of a job; they are still canonicalised.
    DD_SKIP_EDGES = 10

    def prepare(self) -> None:
        self.graphs = enumerate_gc_graphs(6)

    def steps(self, rng: random.Random) -> tuple[list, list]:
        """The job's Lie-identity steps and graph-complex steps, inputs drawn from rng."""
        # each group of elements draws its support from a fresh copy of the
        # fixed generator, so one group's sizes do not change another's support
        support = random.Random(SUPPORT_SEED)
        u, v = (random_tder(4, 4, 0.25, support, rng) for _ in range(2))
        a, b, c = (random_tder(3, 4, 0.25, support, rng) for _ in range(3))
        x = random_tder(3, 5, 0.3, random.Random(SUPPORT_SEED), rng)
        support = random.Random(SUPPORT_SEED)
        p, q, r = (random_grt_like(7, support, rng) for _ in range(3))

        def br(s, t):  # looked up at call time, so a tracer installed later sees it
            return tangent.tder_bracket(s, t)

        def ihara(s, t):
            return graphcx.ihara_bracket(s, t)

        lie = [
            exact_step("tder_bracket antisymmetry (arity 4, order 4)",
                       lambda: br(u, v) + br(v, u)),
            exact_step("tder_bracket Jacobi (arity 3, order 4)",
                       lambda: br(a, br(b, c)) + br(b, br(c, a)) + br(c, br(a, b))),
            exact_step("log_taut(exp_tder(u)) = u (arity 3, order 5)",
                       lambda: tangent.log_taut(tangent.exp_tder(x)) - x),
            exact_step("Ihara bracket Jacobi (order 7)",
                       lambda: ihara(p, ihara(q, r)) + ihara(q, ihara(r, p))
                       + ihara(r, ihara(p, q))),
        ]
        graph = [self._grt_step]
        for g in self.graphs:
            if len(g.edges) == self.DD_SKIP_EDGES:
                continue
            edges, _ = relabel(g.n, g.edges, rng)
            graph.append(exact_step(
                f"d(d(G)) = 0 ({g.n} vertices, {len(g.edges)} edges)",
                lambda g=g, edges=edges: graphcx.differential(graphcx.differential(
                    GraphLinComb.single(g.n, edges)))))
        for g in self.graphs:
            moves = [relabel(g.n, g.edges, rng) for _ in range(self.RELABELLINGS)]
            graph.append(lambda ctx, g=g, moves=moves: self._canonical_step(ctx, g, moves))
        graph.append(cli_step(["gc", "phi", "tetrahedron", "--order", "5"], self._check_phi))
        return lie, graph

    def job(self, ctx: Context, rng: random.Random) -> JobResult:
        lie, graph = self.steps(rng)
        out = run_steps(ctx, interleave([("primary", s) for s in lie],
                                        [("secondary", s) for s in graph]))
        # one sample per job: the Lie part and the graph part as wholes
        out.primary, out.secondary = [sum(out.primary)], [sum(out.secondary)]
        return out

    @staticmethod
    def _canonical_step(ctx: Context, g, moves) -> tuple[Op, float]:
        """canonical_form is invariant under relabelling, up to the edge-order parity."""
        name = f"canonical_form invariance ({g.n} vertices, {len(g.edges)} edges)"
        base, seconds, e = ctx.call(graphcx.canonical_form, g.n, list(g.edges))
        op = Op(name, base is not None, base is not None, e or "a nonzero graph read as zero")
        for edges, parity in moves:
            got, s, e = ctx.call(graphcx.canonical_form, g.n, edges)
            seconds += s
            if op.ok and (got is None or got != (base[0], base[1] * parity)):
                op = Op(name, False, not e,
                        e or f"relabelled {edges}: {got}, expected sign {base[1] * parity}")
        return op, seconds

    @staticmethod
    def _grt_step(ctx: Context) -> tuple[Op, float]:
        space, seconds, e = ctx.call(graphcx.grt_solution_space, 5, 5)
        ok = space is not None and len(space) == 1 and not refs.exactly_zero(space[0]) \
            and all(len(w) == 5 for w in space[0].coords)
        return Op("grt_solution_space(5, 5) has dimension 1", ok, space is not None,
                  e or f"dimension {len(space)}"), seconds

    @staticmethod
    def _check_phi(res: CliResult) -> Op:
        name = "gc phi tetrahedron --order 5"
        bad = _undelivered(name, res)
        if bad:
            return bad
        resid = res.report["grt_residuals"]
        psi = refs.report_coefficients(res.report["psi"])
        ok = all(v == 0 for v in resid.values()) and any(psi.values()) \
            and all(len(w) == 3 for w in psi)
        return Op(name, ok, True, f"grt residuals {resid}, psi {psi}")


# -- quadrature ----------------------------------------------------------------------

class Quadrature(Workload):
    """One-vertex connection coefficients at seeded z, and the tetrahedron weight."""

    primary = "one_vertex_s"
    secondary = "weights_s"
    min_jobs = 1

    def job(self, ctx: Context, rng: random.Random) -> JobResult:
        points = PANEL_Z + (complex(rng.uniform(*Z_RE), rng.uniform(*Z_IM)),)
        samples = []
        for z in points:
            t = rng.choice((0.25, 0.5, 0.75))
            samples.append(("primary", lambda ctx, t=t, z=z: self._one_vertex_step(ctx, t, z)))
        weights = []
        for _ in range(8):
            tw = rng.choice(WEIGHT_TIMES)
            weights.append(("secondary", cli_step(
                ["weights", "--t", repr(tw), "--tol", repr(WEIGHT_TOL), "--budget", "200000"],
                lambda res, tw=tw: self._check_weights(tw, res))))
        return run_steps(ctx, interleave(samples, weights))

    @classmethod
    def _one_vertex_step(cls, ctx: Context, t: float, z: complex) -> tuple[Op, float]:
        res, seconds, e = ctx.call(at_one_vertex_coefficient, t, z, ONE_VERTEX_SPEC)
        return cls._check_one_vertex(t, z, res, e), seconds

    @staticmethod
    def _check_one_vertex(t: float, z: complex, res, error: str) -> Op:
        """Both coefficients within the requested tolerance of the closed form.

        The tolerance applies to the core plane integral, so both deviations
        and the returned estimate (scaled by the larger prefactor) are taken
        back to it.
        """
        name = f"at_one_vertex_coefficient(t={t}, z={z:.4f})"
        if res is None:
            return Op(name, False, False, error)
        a, b, err, _ = res
        acf, bcf = at_one_vertex_closed_form(t, z)
        fa, fb = refs.one_vertex_prefactors(t)
        core_dev = max(abs(a - acf) / fa, abs(b - bcf) / fb)
        core_err = err / max(fa, fb)
        rel = max(abs(a - acf) / abs(acf), abs(b - bcf) / abs(bcf))
        tol = ONE_VERTEX_SPEC.tol
        return Op(name, core_dev <= tol and core_err <= tol, True,
                  f"core integral off by {core_dev:.2e}, estimate {core_err:.2e}, "
                  f"requested {tol:.0e}; relative error {rel:.1e}",
                  incorrect=rel > QUADRATURE_REL_WRONG)

    @staticmethod
    def _check_weights(t: float, res: CliResult) -> Op:
        """The type-I integral within the requested tolerance, the weight within its scaling."""
        name = f"weights --t {t:.4f} --tol {WEIGHT_TOL:g}"
        bad = _undelivered(name, res)
        if bad:
            return bad
        scale = (4 * t * (1 - t)) ** 2 * 5 / 8
        weight, type1 = res.report["weight"], res.report["type1"]
        dev_w = abs(complex(weight["value"]["re"], weight["value"]["im"])
                    - refs.tetra_weight_reference(t))
        dev_1 = abs(complex(type1["value"]["re"], type1["value"]["im"])
                    - refs.tetra_type1_reference())
        ok = (dev_1 <= WEIGHT_TOL and type1["error"] <= WEIGHT_TOL
              and dev_w <= scale * WEIGHT_TOL and weight["error"] <= scale * WEIGHT_TOL)
        ref_1 = refs.tetra_type1_reference()
        wrong = max(dev_1, dev_w / scale) / abs(ref_1) > QUADRATURE_REL_WRONG
        return Op(name, ok, True, f"type-I off by {dev_1:.1e}, weight off by {dev_w:.1e}, "
                                  f"estimate {type1['error']:.1e}", incorrect=wrong)


WORKLOADS = {"associator": Associator, "exact-lie": ExactLie, "quadrature": Quadrature}
