"""Import budget: a solver process loads only what a solve uses.

The T3D simulator, trace analysis, performance models, the solver tiers
beside the Schur core (regroup, displacement rank, streaming, GKO,
Gohberg–Semencul) and ``scipy.fft`` (which pulls in ``scipy.special``)
are re-exported lazily; every public name must still resolve, and be
listed by ``dir()``, as before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

#: Modules a process that imports the engine, service and operators
#: must not load.
DEFERRED = (
    "scipy.fft",
    "scipy.special",
    "repro.tuning",
    "repro.machine",
    "repro.parallel.driver",
    "repro.parallel.backends",
    "repro.parallel.mp_backend",
    "repro.parallel.spmd",
    "repro.parallel.analytic",
    "repro.obs.analyze",
    "repro.obs.timeline",
    "repro.obs.export",
    "repro.blas.perf_model",
    "repro.blas.cray",
    "repro.blas.empirical",
    "repro.core.regroup",
    "repro.core.displacement_rank",
    "repro.core.streaming",
    "repro.core.gko",
    "repro.core.gohberg_semencul",
)

SCRIPT = """
import importlib, json, sys
import numpy, scipy.linalg
import repro.engine, repro.serve, repro.toeplitz
loaded = sorted(set(sys.argv[1:]) & set(sys.modules))
unlisted, unresolved = [], []
for name in ("repro", "repro.core", "repro.parallel", "repro.obs",
             "repro.blas"):
    package = importlib.import_module(name)
    listed = dir(package)
    for attr in package.__all__:
        if attr not in listed:
            unlisted.append(f"{name}.{attr}")
        if getattr(package, attr, None) is None:
            unresolved.append(f"{name}.{attr}")
print(json.dumps({"loaded": loaded, "unlisted": unlisted,
                  "unresolved": unresolved}))
"""


@pytest.fixture(scope="module")
def fresh_process():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in (env.get("PYTHONPATH"),) if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *DEFERRED],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_solver_imports_skip_deferred_modules(fresh_process):
    assert fresh_process["loaded"] == []


def test_public_names_are_listed_before_first_use(fresh_process):
    assert fresh_process["unlisted"] == []


def test_public_names_resolve(fresh_process):
    assert fresh_process["unresolved"] == []


SERIAL_SOLVE = """
import json, sys
import numpy
import repro.engine as engine
from repro.toeplitz import kms_toeplitz
t = kms_toeplitz(32, 0.5)
engine.execute(engine.plan(t), numpy.ones(t.order))
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[:2] == ["repro", "parallel"])))
"""


def test_serial_plan_and_execute_skip_parallel_package():
    """A serial ``plan()`` + ``execute()`` loads no ``repro.parallel``
    module: only distributed plans need it."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in (env.get("PYTHONPATH"),) if p])
    proc = subprocess.run([sys.executable, "-c", SERIAL_SOLVE],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_next_fast_len_matches_scipy():
    import scipy.fft

    from repro.toeplitz.matvec import next_fast_len

    sizes = range(1, 10_001)
    assert ([next_fast_len(n) for n in sizes]
            == [scipy.fft.next_fast_len(n) for n in sizes])
