"""Attack harness: the threats Sections 2.2, 6, 7.1 and 7.4 analyze.

Each attack is a runnable scenario on the simulated network with an
on-path adversary, against any scheme of :data:`repro.baselines.SCHEMES`:
it installs the scheme by name and asks its modules only for their wire
layout (``split``) and receive keying (``receive_keys``).  The
attack x scheme matrix (``tests/attacks/grid.py``, judged by the
knowledge closure of ``tests/spec/knowledge.py``) runs every pair:

* :mod:`repro.attacks.adversary` -- the on-path attacker: records every
  frame via a promiscuous tap and injects raw frames.
* :mod:`repro.attacks.replay` -- replay inside and outside FBS's
  freshness window (Section 6.2's partial protection).
* :mod:`repro.attacks.cutpaste` -- the cut-and-paste splice against
  MAC-less host-pair keying (Section 2.2), and the MAC's rejection of it.
* :mod:`repro.attacks.port_reuse` -- the Section 7.1 port-reallocation
  attack and the wait-THRESHOLD countermeasure.
* :mod:`repro.attacks.compromise` -- key-compromise blast radius: what
  one stolen traffic key and one stolen pair key open (Sections 6.1, 7.4).
* :mod:`repro.attacks.traffic_analysis` -- what a passive observer reads
  off the wire: payloads, ports, host pairs, linkable conversations.
"""

from repro.attacks.adversary import OnPathAdversary
from repro.attacks.replay import ReplayOutcome, run_replay_attack
from repro.attacks.cutpaste import CutPasteOutcome, run_cutpaste_attack
from repro.attacks.port_reuse import PortReuseOutcome, run_port_reuse_attack
from repro.attacks.compromise import CompromiseReport, run_compromise_analysis
from repro.attacks.traffic_analysis import TrafficAnalysisReport, run_traffic_analysis

__all__ = [
    "OnPathAdversary",
    "ReplayOutcome",
    "run_replay_attack",
    "CutPasteOutcome",
    "run_cutpaste_attack",
    "PortReuseOutcome",
    "run_port_reuse_attack",
    "CompromiseReport",
    "run_compromise_analysis",
    "TrafficAnalysisReport",
    "run_traffic_analysis",
]
