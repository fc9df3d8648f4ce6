"""The load replay: a seeded workload through one FBS endpoint pair.

The paper's evaluation feeds traces through single-process flow
simulations (Section 6); this package replays any registered workload
(:mod:`repro.traces.registry`) through the real batch datapath, in this
process, and reports what the registry counted.

* :mod:`repro.load.worker` -- the endpoint pair, the batch replay loop
  and its ledger checks (DESIGN.md section 10).
* :mod:`repro.load.cli` -- ``python -m repro.load`` and its byte-stable
  JSON report.
"""

from repro.load.cli import REPORT_VERSION, build_report
from repro.load.worker import LoadError, WorkerSpec, check_invariants, run_worker

__all__ = [
    "LoadError",
    "WorkerSpec",
    "REPORT_VERSION",
    "build_report",
    "check_invariants",
    "run_worker",
]
