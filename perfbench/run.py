"""assoclab benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload associator --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a closed loop with one client in this process: the next
job starts when the previous one has finished, and a run keeps starting
jobs while the mean job so far still fits in ``--seconds``, or while it has
made fewer than the workload's ``min_jobs``.  Inputs come from ``--seed`` (job i of a run uses the
generator seeded with ``<workload>:<seed>:<i>``).

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference host speed (``hostspeed.py``).  ``--trace 1`` runs job 0
of the seed once untraced and once with every layer wrapped, and reports
the per-layer metrics of the traced run and its overhead; its spans are
written to ``.perfbench_out/``.  Every op of every job is checked against
an independent reference.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One thread per process (the program runs numpy calls on small arrays):
# pin the BLAS pools before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import json
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_PROBE_S, HostSpeed, trimmed_mean

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
SETUP_PROBES = 20      # host-speed probes run before and after each set-up interpreter
WORKLOAD_NAMES = ("associator", "exact-lie", "quadrature")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--warm-up", action="store_true",
                   help="only import the package and run the workload's warm-up "
                        "(what setup_s times in a fresh interpreter)")
    return p.parse_args(argv)


def openblas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def process_threads() -> str:
    try:
        return str(len(os.listdir("/proc/self/task")))
    except OSError:
        return "unknown"


def environment_stamp() -> str:
    import numpy
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"# env python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} openblas_threads={openblas_threads()} "
            f"threads={process_threads()} loadavg={load}")


def measure_setup(workload: str, clock: HostSpeed) -> list[float]:
    """Times of fresh interpreters that import the package and warm up.

    Each wall time is scaled to reference speed by the bursts of host-speed
    probes run in this process just before and just after that interpreter.
    """
    walls, bursts = [], [clock.burst(SETUP_PROBES)]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                               workload, "--warm-up"], cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        bursts.append(clock.burst(SETUP_PROBES))
    return [wall * REFERENCE_PROBE_S / trimmed_mean(before + after)
            for wall, before, after in zip(walls, bursts, bursts[1:])]


def run_loop(wl, ctx, workload: str, seed: int, seconds: float):
    jobs = []
    t0 = perf_counter()
    while True:
        gc.collect()
        jobs.append(wl.job(ctx, random.Random(f"{workload}:{seed}:{len(jobs)}")))
        elapsed = perf_counter() - t0
        if len(jobs) >= wl.min_jobs and elapsed + elapsed / len(jobs) > seconds:
            return jobs


def median_line(name: str, values: list[float], unit: str, what: str) -> str:
    return f"{name} = {statistics.median(values):.4f} {unit} (median of n={len(values)}; {what})"


def end_to_end(args, wl, ctx, warm_up) -> tuple[dict, list]:
    clock = ctx.clock = HostSpeed()
    setup = measure_setup(args.workload, clock)
    clock.start()
    try:
        warm_up(args.workload, SCRATCH)
        wl.prepare()
        jobs = run_loop(wl, ctx, args.workload, args.seed, args.seconds)
    finally:
        clock.stop()
    print(f"# host speed: {clock.probes} probes, median {clock.median_probe() * 1e3:.3f} ms "
          f"(reference {REFERENCE_PROBE_S * 1e3:.1f} ms); times are at reference speed")
    values = {
        "primary_s": [s for j in jobs for s in j.primary],
        "secondary_s": [s for j in jobs for s in j.secondary],
        "setup_s": setup,
    }
    print(f"# {len(jobs)} jobs, median {statistics.median(j.seconds for j in jobs):.4f} s a job")
    print(median_line("primary_s", values["primary_s"], "s", wl.primary))
    print(median_line("secondary_s", values["secondary_s"], "s", wl.secondary))
    print(median_line("setup_s", setup, "s", "fresh interpreters: import + warm-up"))
    metrics = {k: statistics.median(v) for k, v in values.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB (this process, n=1)")
    return metrics, [op for j in jobs for op in j.ops]


def traced(args, wl, ctx, warm_up) -> tuple[dict, list]:
    from tracing import Tracer, layer_metrics
    warm_up(args.workload, SCRATCH)
    wl.prepare()
    rng_name = f"{args.workload}:{args.seed}:0"
    gc.collect()
    untraced = wl.job(ctx, random.Random(rng_name))
    tracer = Tracer()
    ctx.counts = tracer.counts
    gc.collect()
    tracer.install()
    try:
        job = wl.job(ctx, random.Random(rng_name))
    finally:
        tracer.uninstall()
        ctx.counts = None
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = job.seconds / untraced.seconds - 1
    metrics["trace.job_s"] = job.seconds
    metrics["trace.spans"] = len(tracer.spans)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(path, {"workload": args.workload, "seed": args.seed, "job_s": job.seconds,
                       "untraced_job_s": untraced.seconds})
    print(f"job 0: traced {job.seconds:.3f} s, untraced {untraced.seconds:.3f} s "
          f"(overhead {metrics['trace.overhead_frac']:.3f}); spans in {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g}")
    return metrics, untraced.ops + job.ops


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "assoclab" / "__init__.py").is_file():
        print(f"error: no assoclab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from warmup import warm_up
    if args.warm_up:
        warm_up(args.workload, SCRATCH)
        return 0

    import workloads
    print(environment_stamp())
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        wl = workloads.WORKLOADS[args.workload]()
        ctx = workloads.Context(scratch)
        if args.trace:
            metrics, ops = traced(args, wl, ctx, warm_up)
        else:
            metrics, ops = end_to_end(args, wl, ctx, warm_up)
        ops += wl.after_run(ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no other run is using it

    failed = [op for op in ops if not op.ok]
    incorrect = [op for op in ops if op.incorrect]
    print(f"ops_total = {len(ops)}, ops_failed = {len(failed)}, "
          f"ops_failed_frac = {len(failed) / len(ops):.4f}")
    for op in failed:
        print(f"  FAILED {op.name}: {op.detail}")
    for op in incorrect:
        print(f"  INCORRECT {op.name}: {op.detail}")
    result = {
        "correct": not incorrect,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in declared_units(args.trace).items()},
    }
    print(json.dumps(result))
    return 0


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
