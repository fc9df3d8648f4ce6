#!/usr/bin/env python3
"""Attack resilience demo: the threats of Sections 2.2, 6, 7.1 and 7.4.

Runs the five attack scenarios of :mod:`repro.attacks` on the simulated
network against every scheme in :data:`repro.baselines.SCHEMES` and
prints what an on-path adversary achieves, one row per scheme:

1. replay -- 5 s after the original (inside FBS's freshness window) and
   600 s after (outside it),
2. cut-and-paste -- a ciphertext splice between two conversations,
3. the Section 7.1 port-reuse attack, with and without the
   wait-THRESHOLD countermeasure,
4. key compromise -- what one stolen traffic key and one stolen pair
   key open of the recorded traffic,
5. passive observation -- what the wire shows an eavesdropper.

The test suite checks every cell against the knowledge closure of
``tests/spec/knowledge.py``.

Run:  python examples/attack_resilience.py
"""

from repro.attacks import (
    run_compromise_analysis,
    run_cutpaste_attack,
    run_port_reuse_attack,
    run_replay_attack,
    run_traffic_analysis,
)
from repro.baselines import SCHEMES
from repro.bench import render_table


def row(scheme):
    replay = run_replay_attack(scheme, seed=1)
    splice = run_cutpaste_attack(scheme, seed=2)
    reuse = [run_port_reuse_attack(scheme, fixed, seed=3) for fixed in (False, True)]
    stolen = run_compromise_analysis(scheme, seed=4)
    seen = run_traffic_analysis(scheme, conversations=3, seed=5)
    flows = seen.linkable_conversations
    shown = [("payload", seen.payload_readable), ("ports", seen.ports_visible),
             ("hosts", seen.hosts_visible)]  # fmt: skip
    return (
        scheme,
        "yes" if replay.replays_accepted_in_window else "no",
        "yes" if replay.replays_accepted_after_window else "no",
        "LEAKED" if splice.secret_leaked else "rejected",
        " / ".join("RECOVERED" if r.plaintexts_recovered else "blocked" for r in reuse),
        f"{stolen.exposure:.0%} / {stolen.decryptable_with_pair_key / stolen.total_datagrams:.0%}",
        ", ".join([name for name, on in shown if on] + [f"{flows} flow{'s' * (flows > 1)}"]),
    )


def main() -> None:
    headers = ["scheme", "replay +5s", "replay +600s", "cut-and-paste",
               "port reuse / +wait", "one key / pair key", "observer sees"]  # fmt: skip
    rows = [row(scheme) for scheme in SCHEMES]
    print(render_table(headers, rows))
    fbs = dict(zip(SCHEMES, rows))["fbs"]
    if fbs[2] != "no" or fbs[3] != "rejected":
        raise SystemExit("FBS accepted a stale replay or a splice")
    print(
        "\nconclusion: FBS confines a stolen key to a single flow, rejects"
        "\nsplices and stale replays; the replay window and the port-reuse"
        "\nhole remain (the in_pcballoc wait the paper proposes closes it)."
    )


if __name__ == "__main__":
    main()
