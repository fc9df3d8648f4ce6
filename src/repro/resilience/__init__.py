"""Deterministic fault-injection campaigns for the FBS soft-state story.

The paper's central resilience claim is architectural: because every
piece of FBS receiver state is *soft* -- derivable from the datagram in
hand plus long-term keys -- the protocol survives loss, duplication,
reordering, corruption, reboots, clock skew, and state-table races
without ever accepting damaged data or sending a synchronization
message.  This package turns that claim into an executable campaign:

* :mod:`~repro.resilience.faults` -- scripted fault actions (link
  conditions, soft-state flushes, clock skew, MTU collapse, sweeper
  races, forgery/tamper/replay injections);
* :mod:`~repro.resilience.scenario` -- the named scenario matrix, each
  with its goodput floor;
* :mod:`~repro.resilience.harness` -- builds real FBS traffic between
  netsim hosts (plus an attacker) and runs one scenario;
* :mod:`~repro.resilience.invariants` -- the campaign-level checks
  (accounting, goodput, silence, memory); each datagram's outcome is
  judged by the executable specification in tier-1;
* :mod:`~repro.resilience.campaign` / :mod:`~repro.resilience.report`
  -- the driver and the byte-identical-per-seed JSON report;
* ``python -m repro.resilience`` -- the CLI (exit 1 on any violation).
"""

from repro.resilience.campaign import run_campaign, run_scenario
from repro.resilience.harness import ScenarioHarness, ScenarioResult
from repro.resilience.invariants import INVARIANT_NAMES, check_all
from repro.resilience.report import REPORT_VERSION
from repro.resilience.scenario import Scenario, build_matrix

__all__ = [
    "run_campaign",
    "run_scenario",
    "ScenarioHarness",
    "ScenarioResult",
    "INVARIANT_NAMES",
    "check_all",
    "REPORT_VERSION",
    "Scenario",
    "build_matrix",
]
