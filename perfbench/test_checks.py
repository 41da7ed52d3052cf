"""Self-test of the benchmark's references, checks and tracer.

    python3 -m pytest -q perfbench/test_checks.py

Shows that the references hold classical identities, that the sign table
of the KZ coefficients follows from its Lie form, that each check counts a
perturbed result as failed, and that BENCHMARK.json names exactly the
metrics the benchmark prints.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import refs  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def _expand(bracket):
    """Words of an iterated bracket of letters, as {word: coefficient}."""
    if isinstance(bracket, int):
        return {(bracket,): 1}
    left, right = (_expand(b) for b in bracket)
    out: dict = {}
    for u, a in left.items():
        for v, b in right.items():
            out[u + v] = out.get(u + v, 0) + a * b
            out[v + u] = out.get(v + u, 0) - a * b
    return out


def test_kz_sign_table_is_the_lie_form():
    # L2 = -[A,B], L3 = -([A,[A,B]] + [B,[A,B]]) in units zeta(k)/(2 pi i)^k
    want = {w: -c for w, c in _expand((1, 2)).items()}
    for tree in ((1, (1, 2)), (2, (1, 2))):
        for w, c in _expand(tree).items():
            want[w] = want.get(w, 0) - c
    assert {w: c for w, c in want.items() if c} == refs.KZ_WORD_UNITS


def test_kz_signs_pinned():
    ref = refs.kz_reference()
    assert abs(ref[(1, 2)] - (-refs.zeta(2) / refs.TWO_PI_I ** 2)) < 1e-15
    assert abs(ref[(1, 1, 2)] - (-refs.zeta(3) / refs.TWO_PI_I ** 3)) < 1e-15
    assert ref[(1, 2)].real > 0 and ref[(2, 1)].real < 0     # (2 pi i)^2 < 0
    assert ref[(1, 1, 2)].imag < 0 and ref[(1, 2, 1)].imag > 0


def test_kz_depth_one_table_is_ad_a_power():
    # the one-Y words of length k: -ad_A^(k-1)(B) in units zeta(k)/(2 pi i)^k
    for k in (2, 3, 4, 5):
        tree = 2
        for _ in range(k - 1):
            tree = (1, tree)
        want = {w: -c for w, c in _expand(tree).items() if c}
        assert refs.kz_depth_one_units(k) == want
        assert {w: c for w, c in refs.KZ_WORD_UNITS.items()
                if len(w) == k and w.count(2) == 1} == (want if k <= 3 else {})
    ref = refs.kz_reference(5)
    assert abs(ref[(1, 1, 1, 2)] - (-refs.zeta(4) / refs.TWO_PI_I ** 4)) < 1e-18
    assert abs(ref[(1, 1, 1, 1, 2)] - (-refs.zeta(5) / refs.TWO_PI_I ** 5)) < 1e-18
    assert abs(ref[(2, 1, 1, 1)] - refs.zeta(4) / refs.TWO_PI_I ** 4) < 1e-18
    assert abs(ref[(2, 1, 1, 1, 1)] - (-refs.zeta(5) / refs.TWO_PI_I ** 5)) < 1e-18
    assert (1, 1, 1, 2) not in refs.kz_reference(3)


def test_mzv_references_satisfy_sum_theorem_and_duality():
    z = refs.MZV_REFERENCE
    assert math.isclose(z[(3, 1)] + z[(2, 2)], z[(4,)], rel_tol=1e-14)
    assert math.isclose(z[(4, 1)] + z[(3, 2)] + z[(2, 3)], z[(5,)], rel_tol=1e-14)
    assert math.isclose(z[(3, 1, 1)] + z[(2, 2, 1)] + z[(2, 1, 2)], z[(5,)], rel_tol=1e-14)
    # stuffle: zeta(2) zeta(3) = zeta(2,3) + zeta(3,2) + zeta(5)
    assert math.isclose(z[(2,)] * z[(3,)], z[(2, 3)] + z[(3, 2)] + z[(5,)], rel_tol=1e-14)
    assert len(refs.MZV_INDICES) == 15
    assert all(ix[0] >= 2 and sum(ix) <= 5 and 1 <= len(ix) <= 4 for ix in refs.MZV_INDICES)


def test_flow_factor():
    assert refs.flow_degree3_factor(Fraction(0)) == 1
    assert refs.flow_degree3_factor(Fraction(1)) == -1
    assert refs.flow_degree3_factor(Fraction(1, 2)) == 0


def test_parity_and_exactness():
    assert refs.permutation_parity([0, 1, 2]) == 1
    assert refs.permutation_parity([1, 0, 2]) == -1
    assert refs.permutation_parity([1, 2, 0]) == 1
    from assoclab.ncalg import NCSeries
    assert refs.exactly_zero(NCSeries(2, 3))
    assert not refs.exactly_zero(NCSeries(2, 3, {(1,): Fraction(1, 3)}))
    assert not refs.exactly_zero(NCSeries(2, 3, {(1,): 1e-300}))


def _kz_result(tmp_path, order: int) -> W.CliResult:
    ctx = W.Context(tmp_path)
    return ctx.cli(["kz", "--order", str(order)], ctx.fresh_dir("cache-"),
                   f"phi-kz-N{order}-")


def test_kz_check_counts_a_perturbed_coefficient_as_failed(tmp_path):
    res = _kz_result(tmp_path, 3)
    assert W.check_kz("kz --order 3", res, 3).ok
    for term in res.report["associator"]["terms"]:
        if term["word"] == [1, 2]:
            term["coeff"]["re"] += 1e-6
    op = W.check_kz("kz --order 3", res, 3)
    assert not op.ok and op.incorrect


def test_kz_check_reads_depth_one_words_of_length_4(tmp_path):
    res = _kz_result(tmp_path, 4)
    assert W.check_kz("kz --order 4", res, 4).ok
    for term in res.report["associator"]["terms"]:
        if term["word"] == [2, 1, 1, 1]:
            term["coeff"]["re"] += 1e-6
    assert W.check_kz("kz --order 4", res, 4).incorrect


def test_refused_op_is_failed_but_not_incorrect(tmp_path):
    ctx = W.Context(tmp_path)
    res = ctx.cli(["mzv", "2,1,1"], ctx.fresh_dir("cache-"), "mzv-2-1-1-")
    op = W.check_mzv("mzv 2,1,1", res, (2, 1, 1))
    assert res.code != 0 and not op.ok and not op.incorrect
    res = ctx.cli(["mzv", "2,1"], ctx.fresh_dir("cache-"), "mzv-2-1-")
    assert W.check_mzv("mzv 2,1", res, (2, 1)).ok
    res.report["value"] += 1e-9
    assert W.check_mzv("mzv 2,1", res, (2, 1)).incorrect


def test_quadrature_checks_count_perturbed_results_as_failed():
    from assoclab.confint import at_one_vertex_closed_form
    t, z = 0.5, 0.4 + 0.5j
    a, b = at_one_vertex_closed_form(t, z)
    check = W.Quadrature._check_one_vertex
    assert check(t, z, (a, b, 0.0, 1), "").ok
    assert not check(t, z, (a + 1e-6, b, 0.0, 1), "").ok
    assert check(t, z, (a + 1e-4, b, 0.0, 1), "").incorrect
    assert not check(t, z, (a, b, 1.0, 1), "").ok
    # off by 1.5x the requested tolerance: failed, but within the acceptance
    # suite's relative accuracy, so not incorrect
    fa, fb = refs.one_vertex_prefactors(t)
    tol = W.ONE_VERTEX_SPEC.tol
    op = check(t, z, (a + 1.5 * tol * fa, b, tol * max(fa, fb), 1), "")
    assert not op.ok and not op.incorrect

    def weights_report(shift):
        v1 = refs.tetra_type1_reference()
        w = refs.tetra_weight_reference(t) + shift
        return W.CliResult(0, {"type1": {"value": {"re": v1, "im": 0.0}, "error": 1e-9},
                               "weight": {"value": {"re": w, "im": 0.0}, "error": 1e-9}},
                           0.0, "")
    assert W.Quadrature._check_weights(t, weights_report(0.0)).ok
    assert not W.Quadrature._check_weights(t, weights_report(1e-6)).ok
    assert W.Quadrature._check_weights(t, weights_report(1e-4)).incorrect


def test_canonical_form_check_follows_edge_parity():
    from assoclab.graphcx import canonical_form
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    key, sign = canonical_form(4, edges)
    rng = random.Random(3)
    for _ in range(10):
        moved, parity = W.relabel(4, edges, rng)
        assert canonical_form(4, moved) == (key, sign * parity)


def test_interp_check_against_program(tmp_path):
    ctx = W.Context(tmp_path)
    cache = ctx.fresh_dir("cache-")
    for t in (Fraction(1, 3), Fraction(1)):
        res = ctx.cli(["interp", "--order", "3", "--t", repr(float(t))], cache, "phi-kz-N3-")
        assert W.check_interp("interp", res, t).ok
    res.report["associator"]["terms"][-1]["coeff"]["im"] += 1e-6
    assert W.check_interp("interp", res, Fraction(1)).incorrect


def test_tracer_counts_repeat_and_uninstall_restores():
    from assoclab import ncalg, tangent
    from assoclab.tangent import tk_generator
    orig_mul, orig_bracket = ncalg.NCSeries.__mul__, tangent.tder_bracket
    counts = []
    for _ in range(2):
        tr = Tracer()
        tr.install()
        try:
            u = tk_generator(1, 2, 3, 4) + tk_generator(2, 3, 3, 4)
            v = tk_generator(1, 3, 3, 4)
            tangent.tder_bracket(u, tangent.tder_bracket(u, v))
        finally:
            tr.uninstall()
        m = layer_metrics(tr)
        counts.append({k: v for k, v in m.items() if isinstance(v, int)})
        assert m["tangent.tder_bracket.calls"] == 2
        assert m["ncalg.NCSeries.mul.pairs_in_order"] <= m["ncalg.NCSeries.mul.pairs_all"]
    assert counts[0] == counts[1]
    assert ncalg.NCSeries.__mul__ is orig_mul and tangent.tder_bracket is orig_bracket


def test_tracer_sees_the_exact_lie_workload_calls(tmp_path):
    """The workload's own calls into graphcx and tangent go through the wrappers."""
    wl = W.ExactLie()
    wl.prepare()
    lie, graph = wl.steps(random.Random("exact-lie:1:0"))
    n_dd = sum(len(g.edges) != wl.DD_SKIP_EDGES for g in wl.graphs)
    chosen = [lie[2], lie[3], graph[0], graph[1], graph[1 + n_dd]]
    tr = Tracer()
    tr.install()
    try:
        ops = [step(W.Context(tmp_path))[0] for step in chosen]
    finally:
        tr.uninstall()
    assert all(op.ok for op in ops), [op.detail for op in ops]
    assert [op.name.split(" (")[0] for op in ops] == [
        "log_taut(exp_tder(u)) = u", "Ihara bracket Jacobi",
        "grt_solution_space(5, 5) has dimension 1", "d(d(G)) = 0",
        "canonical_form invariance"]
    m = layer_metrics(tr)
    assert m["tangent.log_taut.calls"] == 1 and m["tangent.exp_tder.calls"] >= 1
    assert m["graphcx.ihara_bracket.calls"] == 6
    assert m["graphcx.grt_solution_space.calls"] == 1
    assert m["graphcx.differential.calls"] == 2
    assert m["graphcx.canonical_form.calls"] >= 1 + wl.RELABELLINGS


def test_host_speed_scales_to_the_reference_and_drops_probe_time():
    import hostspeed
    hs = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_PROBE_S
    # a host at half the reference speed: every probe takes twice as long
    hs.starts = [9.5, 10.0, 10.5, 11.0, 11.5]
    hs.durations = [2 * ref] * 5
    # an op from 10 to 12 s of wall time, four probes inside it
    inside = 4 * 2 * ref
    assert math.isclose(hs.seconds(10.0, 12.0), (2.0 - inside) / 2)
    # a short op between probes uses the probes just before it
    assert math.isclose(hs.seconds(11.6, 11.7), 0.05)
    assert hostspeed.WallClock().seconds(1.0, 3.5) == 2.5


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    import run
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS) \
        == list(run.WORKLOAD_NAMES)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"] for m in spec["end_to_end"]} == {"primary_s", "secondary_s", "setup_s",
                                                       "peak_rss_mb"}
    traced = set(layer_metrics(Tracer())) | {"trace.overhead_frac", "trace.job_s",
                                             "trace.spans"}
    assert {m["name"] for m in spec["per_layer"]} == traced
