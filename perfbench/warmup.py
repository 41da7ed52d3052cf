"""Small fixed-input versions of each workload's job.

A warm-up fills the package's ``lru_cache``s (Lyndon words and
bracketings, ``psi3_normalized``) and its lazy imports before anything is
timed.  It imports only ``assoclab`` and numpy, so a fresh interpreter
that runs it measures the program's own set-up cost.
"""

from __future__ import annotations

import contextlib
import io
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from assoclab import cli
from assoclab.confint import QuadratureSpec, at_one_vertex_coefficient
from assoclab.graphcx import (canonical_form, differential,
                              grt_solution_space, ihara_bracket, psi3_normalized,
                              tetrahedron)
from assoclab.ncalg import LieSeries, lie_to_nc, lyndon_words
from assoclab.tangent import TDerElem, exp_tder, log_taut, tder_bracket


def _cli(argv: list[str], tmp: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv + ["--out", str(tmp / "warm-up.json")])


def _tder(k: int, order: int, rng: random.Random) -> TDerElem:
    comps = []
    for _ in range(k):
        coords = {w: Fraction(rng.choice((-1, 1)))
                  for d in range(1, order + 1) for w in lyndon_words(k, d)}
        comps.append(lie_to_nc(LieSeries(k, order, coords), order))
    return TDerElem(k, order, comps)


def associator(tmp: Path) -> None:
    cache = str(tmp / "cache")
    _cli(["kz", "--order", "3", "--cache-dir", cache], tmp)
    _cli(["interp", "--order", "3", "--t", "0.5", "--cache-dir", cache], tmp)
    _cli(["mzv", "2,1", "--cache-dir", cache], tmp)
    # the deepest index allocates the largest summation arrays before it
    # fails, so peak memory does not depend on which index a job draws
    _cli(["mzv", "2,1,1,1", "--cache-dir", cache], tmp)
    psi3_normalized(4)


def exact_lie(tmp: Path) -> None:
    rng = random.Random(0)
    u, v = _tder(3, 3, rng), _tder(3, 3, rng)
    tder_bracket(u, v)
    log_taut(exp_tder(_tder(2, 3, rng)))
    a = LieSeries(2, 4, {w: Fraction(1) for d in (2, 3, 4) for w in lyndon_words(2, d)})
    ihara_bracket(a, a)
    tet = tetrahedron()
    differential(differential(tet))
    canonical_form(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    grt_solution_space(3, 3)
    _cli(["gc", "phi", "tetrahedron", "--order", "4"], tmp)


def quadrature(tmp: Path) -> None:
    at_one_vertex_coefficient(0.5, 0.5 + 0.5j, QuadratureSpec(tol=1e-3, max_cells=200))
    _cli(["weights", "--t", "0.5", "--tol", "1e-3", "--budget", "2000"], tmp)


WARM_UPS = {"associator": associator, "exact-lie": exact_lie, "quadrature": quadrature}


def warm_up(workload: str, scratch: Path) -> None:
    """Run the workload's warm-up with its files in a temporary directory under ``scratch``."""
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="warm-up-", dir=scratch) as tmp:
        WARM_UPS[workload](Path(tmp))
