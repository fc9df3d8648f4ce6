"""Compliant twin for tests/test_policy_structure.py: fan-out in repro.load.

Checked as if it lived at ``src/repro/load/engine.py`` -- the one
package where process fan-out is sanctioned (spawn start method,
picklable worker specs, nothing shared).
"""

# fbslint: module=repro.load.engine
import multiprocessing


def fan_out(run_worker, specs):
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=len(specs)) as pool:
        return pool.map(run_worker, specs)
