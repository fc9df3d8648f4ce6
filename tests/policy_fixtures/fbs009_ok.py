"""Compliant twin for tests/test_policy_structure.py: no process fan-out.

Checked as if it lived at ``src/repro/load/worker.py``: the replay runs
in this process, one spec after another.
"""

# stands in for module repro.load.worker


def replay_all(run_worker, specs):
    return [run_worker(spec) for spec in specs]
