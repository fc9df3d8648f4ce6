"""FBS002/FBS003: the simulation must be deterministic.

Every experiment in EXPERIMENTS.md is reproducible because the netsim
advances a simulated clock and every RNG is explicitly seeded.  Two
rules guard that:

* **FBS002** -- ``time.time``/``time.monotonic``/argless
  ``datetime.now`` (and friends) are banned outside ``repro.bench`` and
  ``repro.transport.udp`` (the real-socket substrate: its ``now()`` is
  the clock the rest of the stack injects, keeping real time
  quarantined behind the transport boundary); protocol and simulation
  code takes the simulated clock (``sim.now`` / the ``now`` callable)
  instead.
* **FBS003** -- no module-global ``random.*`` / ``numpy.random.*``
  calls and no unseeded ``Random()`` / ``SystemRandom`` /
  ``default_rng()`` anywhere in ``src/repro``; every generator is
  constructed with an explicit seed (see ``repro.crypto.random``:
  "Every generator is explicitly seeded; none touches global state").

Inside the deterministic core (``repro.core``/``crypto``/``netsim``/
``baselines``) calling a helper that reaches either primitive is as
banned as the primitive.  The findings are produced by the
whole-program impurity pass in :mod:`repro.analysis.dataflow` over the
clock and randomness sites :mod:`repro.analysis.callgraph` records;
these classes are the rules' ids, severities, ``--list-rules`` rows and
DESIGN.md table entries.
"""

from __future__ import annotations

from repro.analysis.base import Rule, register
from repro.analysis.findings import Severity

__all__ = ["WallClockRule", "UnseededRandomRule"]


@register
class WallClockRule(Rule):
    rule_id = "FBS002"
    name = "no-wall-clock"
    severity = Severity.WARNING
    description = (
        "time.time/time.monotonic/argless datetime.now are banned outside "
        "repro.bench and repro.transport.udp (the real-socket substrate, "
        "whose now() is the clock everything else injects); use the "
        "simulated clock (sim.now / the now callable)"
    )
    rationale = "EXPERIMENTS.md reproducibility; netsim is a virtual-time simulator"


@register
class UnseededRandomRule(Rule):
    rule_id = "FBS003"
    name = "seeded-randomness"
    severity = Severity.WARNING
    description = (
        "no global random.* / numpy.random.* calls and no unseeded "
        "Random()/SystemRandom/default_rng() in src/repro -- construct "
        "seeded generators explicitly"
    )
    rationale = "repro.crypto.random: every generator is explicitly seeded"
