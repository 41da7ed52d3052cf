"""Write BENCH_<pr>.json: end-to-end benchmark, tier-1 and reach numbers of this checkout.

    python3 bench.py 27

Run from the root of a checkout.  The file holds:

* ``src_lines``: the line count of each ``src/assoclab/*.py`` file and
  their ``total``;
* ``workloads``: the end-to-end metrics of one ``perfbench/run.py`` run of
  each workload with that script's default, fixed seed and time budget;
* ``tier1``: the wall time and the outcome counts of the tier-1 tests;
* ``interp7``: the wall seconds and exit code of ``assoclab interp
  --order 7 --t 1`` on an empty cache;
* ``kz_cli``: for N = 7 and 8, the wall seconds and exit code of
  ``assoclab kz --order N`` on an empty cache, which runs the hexagon in a
  forked child beside the pentagon (the ``reach`` stages below run one
  after the other, so they cannot show that overlap);
* ``gc_bracket_self``: the wall seconds and exit code of ``assoclab gc
  bracket-self wheel5``, which canonicalises every reconnection of the
  wheel into itself;
* ``exact_brackets``: the wall seconds of one seeded Ihara Jacobi sum at
  order 9 on rational Lie series, timed in its own interpreter after the
  imports, and its exit code (1 if the sum is not zero);
* ``exact_roundtrip``: the wall seconds of ``log_taut(exp_tder(u))`` for
  one seeded rational tangential derivation u of arity 3 at order 7, timed
  the same way, and its exit code (1 unless the round trip gives u back
  exactly);
* ``reach``: for N = 5, 6, ... the seconds of ``build_phi_kz(N, 64)``,
  ``to_taut3``, ``check_pentagon`` and ``check_hexagon`` and the peak RSS,
  each N in its own interpreter, stopping after the first N over
  ``REACH_SECONDS`` or ``REACH_MB``.  An N is stopped after
  ``REACH_WALL_SECONDS``, a wall limit of its own well above
  ``REACH_SECONDS``, so that the first N over ``REACH_SECONDS`` still
  finishes whole rather than racing the limit; its address space is capped
  at 1.25 times ``REACH_MB`` (a MemoryError beyond).  A stopped N is
  recorded with the stages it finished and, as ``stopped_in``, the stage
  that was running.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent
WORKLOADS = ("associator", "exact-lie", "quadrature")
END_TO_END = ("primary_s", "secondary_s", "setup_s", "peak_rss_mb")
REACH_SECONDS = 60.0
REACH_WALL_SECONDS = 300.0
REACH_MB = 2048.0
REACH_STAGES = ("build", "to_taut3", "pentagon", "hexagon")
KZ_CLI_ORDERS = (7, 8)

# one N of the reach table; prints one JSON line per finished stage
REACH_CHILD = r"""
import json, resource, sys, time
from assoclab.associator import check_hexagon, check_pentagon, to_taut3
from assoclab.kz import build_phi_kz

def done(stage, t0, **extra):
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"stage": stage, "s": time.perf_counter() - t0, "peak_rss_mb": mb, **extra}),
          flush=True)

n = int(sys.argv[1])
t0 = time.perf_counter(); phi = build_phi_kz(n, 64)[0]; done("build", t0)
t0 = time.perf_counter(); g, g_inv = to_taut3(phi); done("to_taut3", t0)
t0 = time.perf_counter(); r = check_pentagon(g); done("pentagon", t0, residual=r)
t0 = time.perf_counter(); r = check_hexagon(g, g_inv); done("hexagon", t0, residual=r)
"""

# one Ihara Jacobi sum of seeded rational Lie series at order 9; prints its seconds
BRACKETS_CHILD = r"""
import random, time
from fractions import Fraction
from assoclab.graphcx import ihara_bracket
from assoclab.ncalg import LieSeries, lyndon_words

rng = random.Random(9)
p, q, r = (LieSeries(2, 9, {w: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                            for d in range(2, 10) for w in lyndon_words(2, d)
                            if rng.random() < 0.5}) for _ in range(3))
t0 = time.perf_counter()
jacobi = (ihara_bracket(p, ihara_bracket(q, r)) + ihara_bracket(q, ihara_bracket(r, p))
          + ihara_bracket(r, ihara_bracket(p, q)))
print(time.perf_counter() - t0)
assert jacobi.is_zero()
"""


# log_taut(exp_tder(u)) of one seeded rational arity-3 derivation at order 7, drawn as the
# exact-lie workload draws its round-trip element: the support from its fixed generator
# (seed 2024), the values from a second one; prints its seconds
ROUNDTRIP_CHILD = r"""
import random, time
from fractions import Fraction
from assoclab.ncalg import LieSeries, lie_to_nc, lyndon_words
from assoclab.tangent import TDerElem, exp_tder, log_taut

support, values = random.Random(2024), random.Random(7)
u = TDerElem(3, 7, [lie_to_nc(LieSeries(3, 7, {w: Fraction(values.choice((-2, -1, 1, 2)))
                                               for d in range(1, 8) for w in lyndon_words(3, d)
                                               if support.random() < 0.3}), 7)
                    for _ in range(3)])
t0 = time.perf_counter()
back = log_taut(exp_tder(u))
print(time.perf_counter() - t0)
assert (back - u).is_zero()
"""


def env() -> dict:
    out = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + out.get("PYTHONPATH", "")
    return out


def src_lines() -> dict:
    counts = {path.name: len(path.read_text().splitlines())
              for path in sorted((ROOT / "src" / "assoclab").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def workload(name: str) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name],
                          cwd=ROOT, env=env(), capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"metrics": {k: result["metrics"][k]["value"] for k in END_TO_END},
            **{k: result[k] for k in ("correct", "attempted", "failed")}}


def tier1() -> dict:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=env(), capture_output=True, text=True)
    seconds = perf_counter() - t0
    last = proc.stdout.strip().splitlines()[-1]
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (\w+)", last)}
    return {"wall_s": seconds, "exit_code": proc.returncode, **counts}


def cli_run(*argv: str) -> dict:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "assoclab.cli", *argv],
                          cwd=ROOT, env=env(), capture_output=True, text=True)
    return {"wall_s": perf_counter() - t0, "exit_code": proc.returncode}


def cold_cli(*argv: str) -> dict:
    """``cli_run`` on an empty cache."""
    with tempfile.TemporaryDirectory() as cache:
        return cli_run(*argv, "--cache-dir", cache)


def timed_child(script: str) -> dict:
    """The seconds a child script prints, and its exit code."""
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env(),
                          capture_output=True, text=True)
    out = proc.stdout.split()
    return {"wall_s": float(out[0]) if out else None, "exit_code": proc.returncode}


def limit_memory():
    cap = int(1.25 * REACH_MB * 2**20)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def reach_one(n: int) -> dict:
    row = {"N": n, "stages": {}, "finished": False}
    proc = subprocess.Popen([sys.executable, "-c", REACH_CHILD, str(n)], cwd=ROOT, env=env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            preexec_fn=limit_memory)
    try:
        out, err = proc.communicate(timeout=REACH_WALL_SECONDS)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        row["stopped_after_s"] = REACH_WALL_SECONDS
    for line in out.splitlines():
        stage = json.loads(line)
        row["stages"][stage.pop("stage")] = stage
    row["finished"] = len(row["stages"]) == len(REACH_STAGES)
    if not row["finished"]:
        row["stopped_in"] = REACH_STAGES[len(row["stages"])]
    if proc.returncode and "stopped_after_s" not in row:
        row["error"] = err.strip().splitlines()[-1] if err.strip() else f"exit {proc.returncode}"
    row["total_s"] = sum(s["s"] for s in row["stages"].values())
    row["peak_rss_mb"] = max((s["peak_rss_mb"] for s in row["stages"].values()), default=0.0)
    return row


def reach() -> list[dict]:
    rows = []
    n = 5
    while True:
        row = reach_one(n)
        rows.append(row)
        stop = "" if row["finished"] else \
            f" (stopped in {row['stopped_in']}: {row.get('error', 'time limit')})"
        print(f"reach N={n}: {row['total_s']:.2f} s, {row['peak_rss_mb']:.0f} MB{stop}",
              file=sys.stderr)
        if (not row["finished"] or row["total_s"] > REACH_SECONDS
                or row["peak_rss_mb"] > REACH_MB):
            return rows
        n += 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("pr", type=int, help="number in the output file name BENCH_<pr>.json")
    args = p.parse_args(argv)
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    report = {"pr": args.pr, "commit": commit, "python": platform.python_version(),
              "cpus": os.cpu_count(), "src_lines": src_lines(), "workloads": {}}
    print(f"src lines: {report['src_lines']['total']}", file=sys.stderr)
    for name in WORKLOADS:
        report["workloads"][name] = workload(name)
        print(f"{name}: {report['workloads'][name]['metrics']}", file=sys.stderr)
    report["tier1"] = tier1()
    print(f"tier-1: {report['tier1']}", file=sys.stderr)
    report["interp7"] = cold_cli("interp", "--order", "7", "--t", "1")
    print(f"interp --order 7 --t 1: {report['interp7']}", file=sys.stderr)
    report["kz_cli"] = {}
    for n in KZ_CLI_ORDERS:
        report["kz_cli"][str(n)] = cold_cli("kz", "--order", str(n))
        print(f"kz --order {n}: {report['kz_cli'][str(n)]}", file=sys.stderr)
    report["gc_bracket_self"] = cli_run("gc", "bracket-self", "wheel5")
    print(f"gc bracket-self wheel5: {report['gc_bracket_self']}", file=sys.stderr)
    report["exact_brackets"] = timed_child(BRACKETS_CHILD)
    print(f"Ihara Jacobi at order 9: {report['exact_brackets']}", file=sys.stderr)
    report["exact_roundtrip"] = timed_child(ROUNDTRIP_CHILD)
    print(f"log_taut(exp_tder(u)) at order 7: {report['exact_roundtrip']}", file=sys.stderr)
    report["reach"] = reach()
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
