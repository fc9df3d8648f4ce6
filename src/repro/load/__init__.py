"""The scale-out load engine: sharded multi-process FBS replay.

The paper's evaluation is trace-driven and single-threaded; the
ROADMAP's north star is "heavy traffic from millions of users, as fast
as the hardware allows".  This package bridges the two the way
production stateful-inspection engines do: partition traffic *by flow*
(every datagram of a flow to the same worker, nothing shared between
workers), run one FBS endpoint pair per worker process, and merge the
per-worker observability into one registry-consistent view.

* :mod:`repro.load.sharding` -- the deterministic CRC-32 flow sharder.
* :mod:`repro.load.worker` -- one shard's endpoint pair + replay loop
  (batch datapath API, shard-exact configuration).
* :mod:`repro.load.engine` -- fan-out (``multiprocessing`` spawn),
  snapshot merging, ledger invariants, and the merge-equality check
  against a single-process run.
* :mod:`repro.load.report` -- byte-stable JSON reports (sim-time
  goodput only; real-clock numbers live in the bench).
* :mod:`repro.load.cli` -- ``python -m repro.load``.

``multiprocessing`` is allowed *only here*
(``tests/test_policy_structure.py``): soft state
and trace sinks are not fork-safe, and every worker must rebuild its
world from a picklable spec.
"""

from repro.load.engine import LoadError, LoadSpec, check_invariants, run_load, verify_merge
from repro.load.report import REPORT_VERSION, build_report
from repro.load.sharding import FlowSharder
from repro.load.worker import WorkerSpec, run_worker, shard_invariant_view

__all__ = [
    "FlowSharder",
    "LoadError",
    "LoadSpec",
    "WorkerSpec",
    "REPORT_VERSION",
    "build_report",
    "check_invariants",
    "run_load",
    "run_worker",
    "shard_invariant_view",
    "verify_merge",
]
