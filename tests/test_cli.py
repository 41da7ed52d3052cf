import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from assoclab import CheckError, __version__, associator, cli, confint
from assoclab.associator import Associator, AssociatorError, interpolate
from assoclab.graphcx import GraphError, grt_generator
from assoclab.kz import KZError, MzvError, build_phi_kz
from assoclab.ncalg import LieSeries, NCSeries, SeriesError
from assoclab.tangent import NotInT3Error, TDerElem
from assoclab.cli import EXIT_CHECK, EXIT_INTERNAL, EXIT_IO, EXIT_OK, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_etingof(tmp_path, capsys):
    out = tmp_path / "et.json"
    code, payload = run(capsys, "etingof", "--out", str(out))
    assert code == EXIT_OK
    assert payload["c_a"] == ["1199", "309657600"]
    assert payload["c_b"] == ["283", "103219200"]
    assert payload["strong_form_fails"] is True
    assert json.loads(out.read_text())["c_a"] == ["1199", "309657600"]


def test_check(capsys):
    code, payload = run(capsys, "check")
    assert code == EXIT_OK
    assert payload["passed"] is True


def test_gc_cocycle_and_phi(capsys):
    code, payload = run(capsys, "gc", "cocycle", "tetrahedron")
    assert code == EXIT_OK and payload["closed"] is True
    code, payload = run(capsys, "gc", "phi", "tetrahedron", "--order", "4")
    assert code == EXIT_OK
    res = payload["grt_residuals"]
    assert res["antisymmetry"] == 0 and res["hexagon"] == 0 and res["pentagon"] == 0
    code, payload = run(capsys, "gc", "divergence", "tetrahedron")
    assert code == EXIT_OK and payload["divergence_free"] is True
    # the bare 5-wheel is not closed: check-failure exit
    code, _ = run(capsys, "gc", "cocycle", "wheel5")
    assert code == EXIT_CHECK


@pytest.mark.parametrize("graph, count, exit_code", [("tetrahedron", 0, EXIT_OK),
                                                     ("wheel5", 1, EXIT_CHECK)])
def test_gc_cocycle_checks_that_the_differential_has_no_terms(capsys, graph, count, exit_code):
    code = main(["gc", "cocycle", graph])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == exit_code and payload["passed"] is (count == 0)
    assert payload["checks"] == {"closed": count} and payload["differential_terms"] == count
    assert payload["closed"] is (count == 0)
    rows = dict(line.split(None, 1) for line in captured.err.splitlines())
    assert rows["closed"] == f"{count} differential terms (bound 0)"


def test_gc_divergence_computes_it_once(capsys, monkeypatch):
    calls = []
    orig = cli.divergence

    def counted(g):
        calls.append(g)
        return orig(g)

    monkeypatch.setattr(cli, "divergence", counted)
    code, payload = run(capsys, "gc", "divergence", "wheel5")
    assert code == EXIT_OK and payload["divergence_free"] is False
    assert len(calls) == 1


def test_gc_file_input(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": 4,
                                "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}))
    code, payload = run(capsys, "gc", "cocycle", "-", "--in", str(path))
    assert code == EXIT_OK and payload["closed"] is True


@pytest.mark.parametrize("graph", [
    {"vertices": 4, "edges": [[True, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]},
    {"vertices": True, "edges": []},
], ids=["boolean endpoint", "boolean vertex count"])
def test_gc_file_input_rejects_booleans(tmp_path, capsys, graph):
    # JSON true loads as a bool, which Python counts as the integer 1
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code = main(["gc", "cocycle", "-", "--in", str(path)])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert str(path) in err and "need integer vertices" in err and "True" in err


def test_unknown_graph_is_io_error(capsys):
    code, _ = run(capsys, "gc", "cocycle", "nonexistent")
    assert code == EXIT_IO


def test_mzv_and_cache(tmp_path, capsys):
    code, payload = run(capsys, "mzv", "2,1", "--tol", "1e-10",
                        "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert abs(payload["value"] - 1.2020569031595942) < 1e-9
    assert any(p.name.startswith("mzv-2-1") for p in tmp_path.iterdir())
    # second call hits the cache
    code, payload2 = run(capsys, "mzv", "2,1", "--tol", "1e-10",
                         "--cache-dir", str(tmp_path))
    assert payload2["value"] == payload["value"]
    # depth 3 at the default tolerance: zeta(2,1,1) = zeta(4)
    code, payload = run(capsys, "mzv", "2,1,1", "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert abs(payload["value"] - 1.0823232337111382) < 1e-10


def test_mzv_reports_its_error_bound(tmp_path, capsys):
    argv = ["mzv", "2,1", "--tol", "1e-10", "--cache-dir", str(tmp_path)]
    code, miss = run(capsys, *argv)
    assert code == EXIT_OK
    assert 0 < miss["error_bound"] <= 1e-10
    assert miss["converged"] is True and miss["passed"] is True
    (cached,) = tmp_path.glob("mzv-*.json")
    assert json.loads(cached.read_text())["error_bound"] == miss["error_bound"]
    # a cache hit reports the same bound
    code, hit = run(capsys, *argv)
    assert code == EXIT_OK
    assert (hit["error_bound"], hit["converged"]) == (miss["error_bound"], True)
    # a tolerance below the rounding of a double still exits 2
    code, _ = run(capsys, "mzv", "2,1,1", "--tol", "1e-17", "--cache-dir", str(tmp_path))
    assert code == EXIT_CHECK


def test_kz_command(tmp_path, capsys):
    out = tmp_path / "kz.json"
    code, payload = run(capsys, "kz", "--order", "3", "--series-order", "48",
                        "--tol", "1e-8", "--cache-dir", str(tmp_path),
                        "--out", str(out))
    assert code == EXIT_OK
    assert payload["passed"] is True
    assert payload["residuals"]["pentagon"] < 1e-8
    assert out.exists()
    # cached rerun
    code, cached = run(capsys, "kz", "--order", "3", "--series-order", "48",
                       "--tol", "1e-8", "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    # the report shows every construction residual, as built, then the two equations
    _, report = build_phi_kz(3, 48, 1e-8)
    for residuals in (payload["residuals"], cached["residuals"]):
        assert list(residuals) == ["constancy", "ode-residual-at-0.3", "grouplike",
                                   "lie-log", "duality", "pentagon", "hexagon"]
        assert {k: residuals[k] for k in report} == report


@pytest.mark.parametrize("order", ["1", "2"])
def test_kz_residuals_are_floats(tmp_path, capsys, order):
    # a cold run, then a cache hit
    for _ in range(2):
        code, payload = run(capsys, "kz", "--order", order, "--cache-dir", str(tmp_path))
        assert code == EXIT_OK
        assert all(type(v) is float for v in payload["residuals"].values()), payload["residuals"]


def test_kz_bad_output_path(tmp_path, capsys):
    code, _ = run(capsys, "kz", "--order", "3", "--series-order", "48",
                  "--tol", "1e-8", "--cache-dir", str(tmp_path),
                  "--out", str(tmp_path / "no" / "such" / "dir" / "x.json"))
    assert code == EXIT_IO


def test_interp_command(tmp_path, capsys):
    code, payload = run(capsys, "interp", "--order", "3", "--series-order", "48",
                        "--t", "1.0", "--tol", "1e-8", "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert payload["passed"] is True
    lam = complex(payload["lambda"]["re"], payload["lambda"]["im"])
    assert abs(lam.real) < 1e-12 and abs(lam.imag) > 0.1


def test_weights_command(tmp_path, capsys):
    code, payload = run(capsys, "weights", "--graph", "tetrahedron",
                        "--t", "0.5", "--tol", "1e-4", "--budget", "4000",
                        "--out", str(tmp_path / "w.json"))
    assert code == EXIT_OK
    w = payload["weight"]["value"]
    assert w["re"] != 0
    assert payload["prefactor"] == ["1", "8"]
    ratio = Fraction(int(payload["lambda_ratio"][0]), int(payload["lambda_ratio"][1]))
    assert ratio == 16


def test_weights_integrates_once(capsys, monkeypatch):
    calls = []
    original = confint.tetra_type1_integral

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(confint, "tetra_type1_integral", counting)
    code, payload = run(capsys, "weights", "--t", "0.25", "--tol", "1e-4", "--budget", "4000")
    assert code == EXIT_OK
    assert len(calls) == 1
    # the weight is the type-I integral times its factors, as tetra_weight gives it
    direct = confint.tetra_weight(0.25, calls[0]).to_json()
    assert payload["weight"] == direct


def test_interp_rejects_low_order(tmp_path, capsys):
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main(["interp", "--order", "2", "--cache-dir", str(cache)])
    assert exc.value.code == 2
    assert "--order" in capsys.readouterr().err
    assert not cache.exists()  # rejected before any computation


def test_weights_rejects_a_graph_without_quadrature(tmp_path, capsys):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--graph", "wheel5", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --graph: invalid choice: 'wheel5'" in err
    assert "'tetrahedron', 'wheel3'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["interp", "weights"])
@pytest.mark.parametrize("t", ["nan", "inf", "-inf", "1e200", "-0.5", "1.5"])
def test_non_finite_t_is_rejected(tmp_path, capsys, command, t):
    """A --t that is not finite, or finite but outside [0, 1], exits 2 from the parser."""
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main([command, f"--t={t}", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if t in ("nan", "inf", "-inf"):
        assert "argument --t: must be a finite number" in err
    else:
        assert f"argument --t: must lie in [0, 1], got {t}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["kz", "--order", "3", "--series-order", "48", "--tol", "nan"],
    ["kz", "--order", "3", "--series-order", "48", "--tol", "0"],
    ["interp", "--order", "3", "--series-order", "48", "--t", "1", "--tol", "nan"],
    ["mzv", "3", "--tol", "nan"],
    ["mzv", "3", "--tol=-1e-9"],
    ["weights", "--tol", "inf"],
    ["weights", "--budget=-5"],
    ["kz", "--order", "-3"],
    ["kz", "--order", "0"],
    ["kz", "--order", "3", "--series-order", "0"],
    ["interp", "--order", "3", "--series-order", "-1"],
], ids=" ".join)
def test_bad_numeric_options_are_rejected(tmp_path, capsys, monkeypatch, argv):
    # the last option given is the bad one
    option = [a for a in argv if a.startswith("--")][-1].split("=")[0]
    cache = tmp_path / "cache"
    monkeypatch.setenv("ASSOCLAB_CACHE", str(cache))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: " in capsys.readouterr().err
    assert not cache.exists()  # rejected before any computation


def test_interp_order5_pins_sigma5(tmp_path, capsys):
    # with sigma_5 pinned on the degree-5 miss of the sigma_3 flow, Phi^1
    # meets anti-KZ through degree 5, and c_5 meets its zeta(5) closed form
    code, payload = run(capsys, "interp", "--order", "5", "--t", "1",
                        "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    checks = payload["checks"]
    assert list(checks) == ["pin-degree3-residual", "pin-degree5-residual",
                            "zeta-closed-form-degree5", "anti-kz-degree4", "anti-kz-degree5"]
    assert all(isinstance(v, float) and v < 1e-14 for v in checks.values())
    assert checks["anti-kz-degree5"] < 1e-15
    assert payload["passed"] is True
    assert "lambda" in payload and "lambda-degree5" in payload
    assert Associator.from_json(payload["associator"]).grouplike_residual() < 1e-15


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


@pytest.mark.parametrize("tol", [1e-9, 1e-16])
@pytest.mark.parametrize("argv", [("kz", "--order", "5"), ("interp", "--order", "5", "--t", "1")],
                         ids=["kz", "interp"])
def test_passed_is_every_check_within_tol(shared_cache, capsys, argv, tol):
    # the report passes exactly when every residual or check is <= --tol, as given
    code, payload = run(capsys, *argv, "--tol", repr(tol), "--cache-dir", shared_cache)
    values = payload["residuals"] if argv[0] == "kz" else payload["checks"]
    assert payload["passed"] is all(v <= tol for v in values.values())
    assert code == (EXIT_OK if payload["passed"] else EXIT_CHECK)
    if argv[0] == "interp" and tol == 1e-16:
        assert code == EXIT_CHECK  # zeta-closed-form-degree5 reads about 5e-16


def test_interp_runs_one_flow(tmp_path, capsys, monkeypatch):
    calls = []
    tangent = associator.drinfeld_tangent
    monkeypatch.setattr(associator, "drinfeld_tangent",
                        lambda *args: calls.append(1) or tangent(*args))
    code, payload = run(capsys, "interp", "--order", "7", "--t", "1", "--cache-dir", str(tmp_path))
    assert code == EXIT_OK and "lambda-degree7" in payload
    pinned = len(calls)
    calls.clear()
    sigmas = [grt_generator(d, 7) for d in (3, 5, 7)]
    interpolate(Associator.one(7), Fraction(0), Fraction(1), sigmas)
    # degrees 3..7 take 1, 1, 2, 2 and 3 tangents: one pass, where a flow per pin took 22
    assert pinned == len(calls) == 9


def test_cache_of_other_source_is_not_served(tmp_path, capsys, monkeypatch):
    argv = ["mzv", "2", "--cache-dir", str(tmp_path)]
    code, fresh = run(capsys, *argv)
    assert code == EXIT_OK
    (own,) = tmp_path.iterdir()
    other = "0" * 8
    # a payload that decodes, cached by another source
    (tmp_path / own.name.replace(cli.SOURCE_DIGEST, other)).write_text(
        json.dumps({"index": [2], "value": 1.5, "error_bound": 1e-13}))
    code, again = run(capsys, *argv)
    assert code == EXIT_OK and again["value"] == fresh["value"] != 1.5
    # that source itself is served it
    monkeypatch.setattr(cli, "SOURCE_DIGEST", other)
    assert run(capsys, *argv)[1]["value"] == 1.5


def test_interp_order6_reaches_degree6(tmp_path, capsys):
    # sigma_3 and sigma_5 carry Phi^1 to anti-KZ in degrees 4 to 6 (grt has
    # no degree-6 element)
    code, payload = run(capsys, "interp", "--order", "6", "--t", "1",
                        "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    checks = payload["checks"]
    assert list(checks) == ["pin-degree3-residual", "pin-degree5-residual",
                            "zeta-closed-form-degree5", "anti-kz-degree4", "anti-kz-degree5",
                            "anti-kz-degree6"]
    assert all(v < 1e-14 for v in checks.values())
    assert checks["anti-kz-degree4"] < 1e-15
    assert checks["anti-kz-degree5"] < 1e-15
    assert checks["anti-kz-degree6"] < 1e-15
    assert payload["passed"] is True


def test_interp_order5_half_is_flip_symmetric(tmp_path, capsys):
    code, payload = run(capsys, "interp", "--order", "5", "--t", "0.5",
                        "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    checks = payload["checks"]
    assert list(checks) == ["pin-degree3-residual", "pin-degree5-residual",
                            "zeta-closed-form-degree5", "flip-symmetry"]
    assert all(v < 1e-14 for v in checks.values())
    assert checks["flip-symmetry"] < 1e-15
    assert payload["passed"] is True


def test_interp_half_reports_flip_symmetry(tmp_path, capsys):
    # Phi^{1/2} is even through degree 4: Phi(-X, -Y) = Phi(X, Y)
    code, payload = run(capsys, "interp", "--order", "4", "--t", "0.5",
                        "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    checks = payload["checks"]
    assert list(checks) == ["pin-degree3-residual", "flip-symmetry"]
    assert checks["flip-symmetry"] < 1e-15
    assert payload["passed"] is True


def test_weights_not_converged_exits_check(capsys):
    code = main(["weights", "--tol", "1e-12", "--budget", "8"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == EXIT_CHECK
    assert payload["type1"]["converged"] is False and payload["weight"]["converged"] is False
    assert payload["type1"]["error"] > 1e-12
    assert "did not converge" in captured.err
    code, payload = run(capsys, "weights")
    assert code == EXIT_OK
    assert payload["type1"]["converged"] is True and payload["type1"]["error"] <= 1e-6


def test_exit_codes(tmp_path, capsys, monkeypatch):
    # a tolerance that cannot be met is a failed check, not an I/O problem
    code, _ = run(capsys, "mzv", "2,1,1", "--tol", "1e-17", "--cache-dir", str(tmp_path))
    assert code == EXIT_CHECK
    # a malformed graph file is bad input
    bad = tmp_path / "g.json"
    bad.write_text('{"vertices": 4, "edg')
    code = main(["gc", "cocycle", "-", "--in", str(bad)])
    assert code == EXIT_IO
    assert "cannot read a graph" in capsys.readouterr().err
    bad.write_text(json.dumps({"vertices": 3, "edges": [[1, 2], [2, 9]]}))
    code = main(["gc", "cocycle", "-", "--in", str(bad)])
    assert code == EXIT_IO
    assert "edges between vertices 1..3" in capsys.readouterr().err

    # an associator whose log is not Lie fails to_taut3's tolerance inside the flow
    not_lie = Associator(NCSeries(2, 3, {(): Fraction(1), (1, 2): Fraction(1)}))
    monkeypatch.setattr(cli, "_phi_kz_cached", lambda *args: (not_lie, {}))
    code = main(["interp", "--order", "3", "--t", "1", "--cache-dir", str(tmp_path)])
    assert code == EXIT_CHECK
    assert capsys.readouterr().err.startswith(
        "error: AssociatorError: log is not Lie within tolerance")

    def broken():
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "etingof_coefficients", broken)
    code = main(["etingof"])
    assert code == EXIT_INTERNAL
    first, *traceback = capsys.readouterr().err.splitlines()
    assert first.startswith("internal error: ZeroDivisionError: boom")
    # the traceback follows the one-line message and ends in the raising frame
    assert traceback[0] == "Traceback (most recent call last):"
    assert any(line.endswith("in broken") for line in traceback)
    assert traceback[-1] == "ZeroDivisionError: boom"


def test_truncated_cache_is_recomputed(tmp_path, capsys):
    cache = str(tmp_path)
    mzv_argv = ["mzv", "2,1", "--cache-dir", cache]
    kz_argv = ["kz", "--order", "3", "--series-order", "48", "--tol", "1e-8", "--cache-dir", cache]
    code, first = run(capsys, *mzv_argv)
    assert code == EXIT_OK
    code, first_kz = run(capsys, *kz_argv)
    assert code == EXIT_OK
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 2 and not any(n.endswith(".tmp") for n in files)
    assert all(f"-{cli.SOURCE_DIGEST}-" in n for n in files)
    (mzv_file,), (kz_file,) = tmp_path.glob("mzv-*.json"), tmp_path.glob("phi-kz-*.json")
    whole = {p: json.loads(p.read_text()) for p in (mzv_file, kz_file)}
    for p in tmp_path.iterdir():
        text = p.read_text()
        p.write_text(text[: len(text) // 2])
    code, again = run(capsys, *mzv_argv)
    assert code == EXIT_OK
    code, again_kz = run(capsys, *kz_argv)
    assert code == EXIT_OK
    for payload in (first, again, first_kz, again_kz):
        payload.pop("seconds")
        payload.pop("profile", None)
    assert again == first and again_kz == first_kz
    # the repaired files are whole again
    for p in tmp_path.iterdir():
        assert json.loads(p.read_text()) == whole[p]
    # a payload that parses but does not decode is a miss too
    for path, bad, argv, cold in [
        (kz_file, {"associator": {"alphabet": 2}, "report": {}}, kz_argv, first_kz),
        # the zero series fails the associator's own check: its constant term is not 1
        (kz_file, {"associator": {"alphabet": 2, "order": 3, "terms": []}, "report": {}},
         kz_argv, first_kz),
        (kz_file, {**whole[kz_file], "report": "x"}, kz_argv, first_kz),
        # a whole associator, but of another order than the one asked for
        (kz_file, {**whole[kz_file], "associator": Associator.one(2).to_json()},
         kz_argv, first_kz),
        (mzv_file, {"index": [2, 1], "value": "abc"}, mzv_argv, first),
    ]:
        path.write_text(json.dumps(bad))
        code, payload = run(capsys, *argv)
        assert code == EXIT_OK
        payload.pop("seconds")
        payload.pop("profile", None)
        assert payload == cold
        assert json.loads(path.read_text()) == whole[path]


@pytest.mark.parametrize("argv", [
    ["kz", "--order", "3", "--series-order", "48", "--tol", "1e-8"],
    ["interp", "--order", "3", "--series-order", "48", "--t", "1", "--tol", "1e-8"],
    ["etingof"],
    ["gc", "cocycle", "tetrahedron"],
    ["weights", "--tol", "1e-3", "--budget", "2000"],
    ["check"],
    ["mzv", "2,1"],
], ids=lambda argv: argv[0])
def test_every_report_carries_the_envelope(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    cache = ["--cache-dir", str(tmp_path / "cache")] if argv[0] in ("kz", "interp", "mzv") else []
    code, payload = run(capsys, *argv, "--out", str(out), *cache)
    assert code == EXIT_OK
    assert payload["command"] == argv[0] and payload["version"] == __version__
    assert payload["passed"] is True
    assert isinstance(payload["seconds"], float) and payload["seconds"] >= 0
    assert json.loads(out.read_text()) == payload


@pytest.mark.parametrize("graph, reason", [("wheel5", "closed"), ("edge", "degree-0")])
def test_gc_phi_outside_its_domain_exits_check(capsys, graph, reason):
    code = main(["gc", "phi", graph])
    err = capsys.readouterr().err
    assert code == EXIT_CHECK
    assert err.startswith("error: GraphError: phi_map needs") and reason in err


def test_gc_phi_rejects_order_below_loop_order(capsys):
    # the tetrahedron has 3 loops: its image lies in degree 3, so --order 2 reads zero
    code = main(["gc", "phi", "tetrahedron", "--order", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_CHECK and captured.out == ""
    assert captured.err.startswith("error: GraphError: --order 2 is below the loop order 3")
    code, payload = run(capsys, "gc", "phi", "tetrahedron", "--order", "3")
    assert code == EXIT_OK and payload["passed"] is True


def test_gc_phi_fails_on_a_zero_image(capsys, monkeypatch):
    # no named graph maps to zero, so phi_map is replaced by one that does
    zero = associator.GrtElem(psi=LieSeries.zero(2, 3), pair=TDerElem.zero(2, 3))
    monkeypatch.setattr(cli, "phi_map", lambda g, order: zero)
    code = main(["gc", "phi", "tetrahedron", "--order", "3"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == EXIT_CHECK and payload["passed"] is False
    assert set(payload["grt_residuals"].values()) == {0}
    assert "psi is zero" in captured.err and "loop-8" in captured.err


@pytest.mark.parametrize("index", ["2,x", "3,,1", ""])
def test_mzv_rejects_a_malformed_index(tmp_path, capsys, index):
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main(["mzv", index, "--cache-dir", str(cache)])
    assert exc.value.code == 2
    assert f"argument index: must be comma separated integers, got {index!r}" \
        in capsys.readouterr().err
    assert not cache.exists()


def test_quadrature_error_exits_check(capsys, monkeypatch):
    def refused(spec):
        raise confint.QuadratureError("z must avoid the marked points")

    monkeypatch.setattr(confint, "tetra_type1_integral", refused)
    code = main(["weights"])
    assert code == EXIT_CHECK
    assert capsys.readouterr().err.startswith("error: QuadratureError: z must avoid")


@pytest.mark.parametrize("error, exit_code", [
    (MzvError("refused"), EXIT_CHECK),
    (KZError("refused"), EXIT_CHECK),
    (NotInT3Error(4, 1e-3), EXIT_CHECK),
    (AssociatorError("refused"), EXIT_CHECK),
    (GraphError("refused"), EXIT_CHECK),
    (confint.QuadratureError("refused"), EXIT_CHECK),
    (SeriesError("refused"), EXIT_INTERNAL),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_exit_code_is_decided_by_the_error_class(capsys, monkeypatch, error, exit_code):
    # every error that exits 2 is a CheckError; any other error is internal
    assert isinstance(error, CheckError) == (exit_code == EXIT_CHECK)

    def refused():
        raise error

    monkeypatch.setattr(cli, "etingof_coefficients", refused)
    assert main(["etingof"]) == exit_code
    prefix = "error" if exit_code == EXIT_CHECK else "internal error"
    assert capsys.readouterr().err.startswith(f"{prefix}: {type(error).__name__}: ")


def test_algebra_commands_do_not_load_numpy(tmp_path):
    # nor multiprocessing: kz forks its hexagon child with os.fork
    src = Path(cli.__file__).resolve().parent.parent
    probe = ("import sys, assoclab.cli as cli; "
             f"code = cli.main(['kz', '--order', '3', '--cache-dir', {str(tmp_path)!r}]); "
             "print(code, 'numpy' in sys.modules, 'multiprocessing' in sys.modules)")
    env = {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "0 False False"


# -- kz: the hexagon in a forked child ----------------------------------------------------

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["forked", "sequential"])
def hexagon_path(request, monkeypatch):
    """Run kz with the hexagon in a forked child, or with os.fork removed, one after the other."""
    if request.param == "sequential":
        monkeypatch.delattr(os, "fork")
    yield request.param
    _no_child_left()


@pytest.mark.parametrize("order", ["3", "4", "5"])
def test_kz_report_is_the_same_with_and_without_fork(shared_cache, capsys, monkeypatch, order):
    argv = ["kz", "--order", order, "--cache-dir", shared_cache]
    code, forked = run(capsys, *argv)
    _no_child_left()
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        code_seq, sequential = run(capsys, *argv)
    assert code == code_seq == EXIT_OK
    profiles = [forked.pop("profile"), sequential.pop("profile")]
    forked.pop("seconds"), sequential.pop("seconds")
    assert forked == sequential
    for profile in profiles:
        assert list(profile) == ["phi_s", "to_taut3_s", "pentagon_s", "hexagon_s",
                                 "hexagon_child_peak_rss_mb"]
        assert all(v >= 0 for v in list(profile.values())[:4])
    # the child's own peak, which this process's RUSAGE_SELF does not see
    assert profiles[0]["hexagon_child_peak_rss_mb"] > 0
    assert profiles[1]["hexagon_child_peak_rss_mb"] is None


@pytest.mark.parametrize("error, exit_code, line", [
    (AssociatorError("refused"), EXIT_CHECK, "error: AssociatorError: refused"),
    (ValueError("boom"), EXIT_INTERNAL, "internal error: ValueError: boom"),
], ids=["AssociatorError", "ValueError"])
def test_kz_hexagon_error_keeps_its_exit_code(tmp_path, capsys, monkeypatch, hexagon_path,
                                              error, exit_code, line):
    def refused(g, g_inv):
        raise error

    monkeypatch.setattr(cli, "check_hexagon", refused)
    code = main(["kz", "--order", "3", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == exit_code and captured.out == ""
    assert captured.err.splitlines()[0] == line
    if hexagon_path == "forked" and exit_code == EXIT_INTERNAL:
        # the traceback shows where the child raised
        assert "in the hexagon child:" in captured.err and "in refused" in captured.err


def test_kz_child_flushes_no_buffer_and_runs_no_exit_handler(tmp_path):
    # stdout to a pipe is block buffered: a child leaving by sys.exit would
    # write the unflushed line a second time and run the exit handler too
    src = Path(cli.__file__).resolve().parent.parent
    probe = ("import atexit, sys, assoclab.cli as cli; print('buffered'); "
             "atexit.register(print, 'exit handler'); "
             f"sys.exit(cli.main(['kz', '--order', '3', '--cache-dir', {str(tmp_path)!r}]))")
    env = {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.count("buffered") == result.stdout.count("exit handler") == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the hexagon runs in-process without fork")
def test_kz_hexagon_child_that_dies_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_hexagon", lambda g, g_inv: os._exit(9))
    code = main(["kz", "--order", "3", "--cache-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code != EXIT_OK
    assert "the hexagon child" in err.splitlines()[0] and "exit code 9" in err
    _no_child_left()


def test_kz_pentagon_interrupt_kills_the_hexagon_child(tmp_path, monkeypatch):
    def interrupted(g):
        raise KeyboardInterrupt

    # a child that would outlive the call by a minute unless it is killed
    monkeypatch.setattr(cli, "check_hexagon", lambda g, g_inv: time.sleep(60))
    monkeypatch.setattr(cli, "check_pentagon", interrupted)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(["kz", "--order", "3", "--cache-dir", str(tmp_path)])
    assert time.perf_counter() - t0 < 30
    _no_child_left()


def _gone(pid: int) -> bool:
    """Whether process ``pid`` has ended: it is absent, or a zombie no one has reaped yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux's")
def test_kz_parent_killed_by_sigkill_takes_the_hexagon_child_with_it(tmp_path):
    # SIGKILL runs none of the parent's cleanup, so only the child's own
    # request to the kernel can end it before its (here minute-long) hexagon
    src = Path(cli.__file__).resolve().parent.parent
    pid_file = tmp_path / "child.pid"
    probe = ("import os, time, assoclab.cli as cli\n"
             "def slow(g, g_inv):\n"
             f"    open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
             "    time.sleep(60)\n"
             "cli.check_hexagon = slow\n"
             f"cli.main(['kz', '--order', '3', '--cache-dir', {str(tmp_path)!r}])\n")
    env = {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    parent = subprocess.Popen([sys.executable, "-c", probe], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (pid_file.exists() and pid_file.read_text()):
            assert parent.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert not _gone(child)
    finally:
        parent.kill()
        parent.wait()
    deadline = time.monotonic() + 5
    while not _gone(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = not _gone(child)
    if alive:
        os.kill(child, 9)
    assert not alive


@pytest.mark.parametrize("argv", [["etingof"], ["gc", "delta", "tetrahedron"],
                                  ["gc", "divergence", "wheel5"],
                                  ["gc", "bracket-self", "tetrahedron"]], ids=" ".join)
def test_report_that_checks_nothing_says_so(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == EXIT_OK and payload["passed"] is True
    assert payload["checks"] == {}
    rows = dict(line.split(None, 1) for line in captured.err.splitlines())
    assert rows["checks"].startswith("none: nothing was verified")
