"""The attack x scheme security matrix: run, and predicted.

Every row is one attack of :mod:`repro.attacks` at one setting, run on
the simulated network against every scheme in
:data:`repro.baselines.SCHEMES`; every cell has a prediction read off
that scheme's row in ``tests/spec/knowledge.py``.  ``test_grid.py``
checks each cell against its prediction in tier-1, and
``benchmarks/bench_security_matrix.py`` writes the same cells to
``benchmarks/reports/security_matrix.txt``.
"""

from functools import lru_cache

from repro.attacks import (
    run_compromise_analysis,
    run_cutpaste_attack,
    run_port_reuse_attack,
    run_replay_attack,
    run_traffic_analysis,
)
from repro.attacks.replay import AFTER_WINDOW, IN_WINDOW
from tests.spec.knowledge import GRAIN, RULES, Datagram, closure, key, opens, sealing

#: The compromise workload: bursts of one datagram per flow, alice -> bob
#: and then alice -> carol.
FLOWS, PER_FLOW = 6, 4
CAPTURE, OTHER = (
    [Datagram(("alice", to), f, b * FLOWS + f + n) for b in range(PER_FLOW) for f in range(FLOWS)]
    for to, n in (("bob", 0), ("carol", FLOWS * PER_FLOW))
)
#: Conversations the passive observer watches.
CONVERSATIONS = 3
#: A port-reuse attacker slower than FBS's freshness span.
SLOW = 400.0
GUARD = 256


@lru_cache(maxsize=None)
def _replay(scheme, guard):
    return run_replay_attack(scheme, seed=100, replay_guard_size=guard)


@lru_cache(maxsize=None)
def _port_reuse(scheme, countermeasure, delay):
    outcome = run_port_reuse_attack(scheme, countermeasure, seed=102, attack_delay=delay)
    return "RECOVERED" if outcome.plaintexts_recovered else "BLOCKED"


@lru_cache(maxsize=None)
def _compromise(scheme):
    return run_compromise_analysis(scheme, FLOWS, PER_FLOW, seed=103)


def _observed(scheme, gateways):
    report = run_traffic_analysis(scheme, CONVERSATIONS, seed=104, gateways=gateways)
    seen = [("payloads", report.payload_readable), ("ports", report.ports_visible),
            ("host pairs", report.hosts_visible)]  # fmt: skip
    return _leaks([name for name, shown in seen if shown], report.linkable_conversations)


def _accepted(yes):
    return "ACCEPTED" if yes else "REJECTED"


def _share(opened):
    return f"{opened * 100 / len(CAPTURE):.0f}% of traffic"


def _leaks(shown, flows):
    return ", ".join(shown + [f"{flows} linkable flow{'s' if flows > 1 else ''}"])


def _opened(rules, leaked, victims=CAPTURE):
    known = closure(rules, leaked, CAPTURE + OTHER)
    return _share(sum(opens(rules, known, d) for d in victims))


def _splice(rules):
    """The splice is read with the public datagram's key, and lands only
    where no MAC binds the grafted body to the public header."""
    public, secret = Datagram(("alice", "bob"), 0, 0), Datagram(("alice", "bob"), 1, 1)
    known = closure(rules, {sealing(rules, public)}, [public, secret])
    return "LEAKED" if not rules.mac and opens(rules, known, secret) else "REJECTED"


def _linkable(rules):
    """Conversations split by a clear label that follows them: the
    5-tuple of an unsealed datagram, or a per-conversation label."""
    unsealed = rules.chain is None
    return CONVERSATIONS if unsealed or "flow" in {GRAIN[l] for l in rules.chain} else 1


#: attack -> (the cell run against ``scheme``, the cell predicted from its rules)
ROWS = {
    "replay (in window)": (
        lambda s: _accepted(_replay(s, 0).replays_accepted_in_window),
        lambda r: _accepted(IN_WINDOW < r.span),
    ),
    "replay (stale)": (
        lambda s: _accepted(_replay(s, 0).replays_accepted_after_window),
        lambda r: _accepted(AFTER_WINDOW < r.span),
    ),
    "replay (in window, replay guard)": (
        lambda s: _accepted(_replay(s, GUARD).replays_accepted_in_window),
        lambda r: _accepted(IN_WINDOW < r.span and not r.guard),
    ),
    "cut-and-paste": (
        lambda s: "LEAKED" if run_cutpaste_attack(s, seed=101).secret_leaked else "REJECTED",
        _splice,
    ),
    "port reuse (Sec 7.1)": (
        lambda s: _port_reuse(s, False, 1.0),
        lambda r: "RECOVERED" if 1.0 < r.span else "BLOCKED",
    ),
    "port reuse + wait-THRESHOLD": (lambda s: _port_reuse(s, True, 1.0), lambda r: "BLOCKED"),
    "port reuse (slow attacker)": (
        lambda s: _port_reuse(s, False, SLOW),
        lambda r: "RECOVERED" if SLOW < r.span else "BLOCKED",
    ),
    "passive observation": (
        lambda s: _observed(s, gateways=False),
        lambda r: _leaks(["payloads", "ports"] * (r.chain is None) + ["host pairs"], _linkable(r)),
    ),
    # The tunnel classifies by the inner datagram's port fields; a sealed
    # one starts with a label fixed per host or fresh per datagram.
    "passive observation, gateway tunnels": (
        lambda s: _observed(s, gateways=True),
        lambda r: _leaks([], CONVERSATIONS if r.chain is None else 1),
    ),
    "one traffic key stolen": (
        lambda s: _share(_compromise(s).decryptable_with_one_key),
        lambda r: _opened(r, {sealing(r, CAPTURE[0])}),
    ),
    "pair key stolen": (
        lambda s: _share(_compromise(s).decryptable_with_pair_key),
        lambda r: _opened(r, {key(r, CAPTURE[0], 0)}),
    ),
    "pair key stolen, another pair's traffic": (
        lambda s: _share(_compromise(s).decryptable_in_other_pair),
        lambda r: _opened(r, {key(r, CAPTURE[0], 0)}, OTHER),
    ),
}


def cell(attack, scheme):
    """The outcome of ``attack`` against ``scheme`` on the simulated network."""
    return ROWS[attack][0](scheme)


def predicted(attack, scheme):
    """The outcome the knowledge closure predicts for that cell."""
    return ROWS[attack][1](RULES[scheme])
