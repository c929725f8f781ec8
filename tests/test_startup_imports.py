"""What a process start imports.

Every CLI run, engine worker and sweep shard starts by importing
``repro.engine``, ``repro.scenarios`` and ``repro.sweep``.  None of them
integrates an ODE or runs a nonlinear least-squares fit, so
``scipy.integrate`` and ``scipy.optimize`` (together about 19 MB and a
third of a second) must load only when ``HybridSimulator.simulate``,
``BehavioralPLLSimulator.simulate`` or ``find_equilibrium`` first runs.
The check runs in a fresh interpreter: the test session itself has long
since imported both packages.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = Path(repro.__file__).resolve().parent.parent

SCRIPT = r"""
import json
import sys

DEFERRED = ("scipy.integrate", "scipy.optimize")


def loaded():
    return sorted(name for name in sys.modules
                  if any(name == package or name.startswith(package + ".")
                         for package in DEFERRED))


import repro, repro.engine, repro.scenarios, repro.sweep, repro.__main__
at_start = loaded()

import numpy as np
from repro.hybrid import (HybridSimulator, HybridSystem, Mode,
                          SimulationSettings, find_equilibrium)
from repro.polynomial import Polynomial, VariableVector, make_variables
from repro.sos import SemialgebraicSet

x, = make_variables("x")
xv = VariableVector([x])
decay = Mode("decay", 1, xv, (-Polynomial.from_variable(x, xv),),
              SemialgebraicSet(xv), contains_equilibrium=True)
system = HybridSystem("decay", xv, (decay,), (), equilibrium=np.zeros(1))
after_imports = loaded()

equilibrium = find_equilibrium(system).tolist()
after_equilibrium = loaded()

result = HybridSimulator(system, SimulationSettings(max_flow_time=1.0)) \
    .simulate([1.0])
print(json.dumps({
    "at_start": at_start,
    "after_imports": after_imports,
    "equilibrium": equilibrium,
    "after_equilibrium": after_equilibrium,
    "final_state": result.final_state.tolist(),
    "after_simulate": loaded(),
}))
"""


def _run_fresh_interpreter():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_integrate_and_optimize_load_on_first_use_only():
    seen = _run_fresh_interpreter()
    # Process start: the library's layers and the CLI module.
    assert seen["at_start"] == []
    # Importing the simulator and the equilibrium finder loads nothing yet.
    assert seen["after_imports"] == []
    # find_equilibrium's least-squares fit loads scipy.optimize only.
    assert abs(seen["equilibrium"][0]) < 1e-8
    assert "scipy.optimize" in seen["after_equilibrium"]
    assert not any(name.startswith("scipy.integrate")
                   for name in seen["after_equilibrium"])
    # A simulation loads scipy.integrate: the import was deferred, not lost.
    assert 0.0 < seen["final_state"][0] < 1.0
    assert "scipy.integrate" in seen["after_simulate"]
