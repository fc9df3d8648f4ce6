"""What an attacker derives from what it holds: the knowledge closure.

After Torlak et al. and van Dijk et al. (PAPERS.md): a knowledge set
closed under derivation rules.  One row per scheme, written from its
description (Sections 2.2, 5.2, 7.4): the labels it carries in the
clear, in the order that takes its top key (K_{S,D}, SKIP's K_ij, a KDC
secret) down to the key sealing one datagram; whether a MAC binds body
to header; how long a recorded datagram surely stays acceptable.  A
label is ``sfl`` (one per conversation), ``n`` (per hour), ``wrapped
Kp`` (per datagram), ``ticket`` or ``SPI`` (per host pair).  Labels are
on the wire, so a key yields every key below it on a recorded datagram,
and nothing above it, beside it, or of another pair.  Imports nothing
from ``repro``: it judges ``tests/attacks/grid.py`` and the machine's attacker.
"""

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, NamedTuple, Optional, Tuple


class Datagram(NamedTuple):
    """Where one recorded datagram sits: what its labels vary with."""

    pair: Tuple[str, str]  # (source, destination)
    flow: int  # its conversation
    index: int  # its place in the capture
    hour: int = 0


GRAIN = {"sfl": "flow", "n": "hour", "wrapped Kp": "index", "ticket": "pair", "SPI": "pair"}


@dataclass(frozen=True)
class Rules:
    chain: Optional[Tuple[str, ...]]  # clear labels, top key -> datagram key; None: unsealed
    mac: bool
    span: float = math.inf  # seconds a recorded datagram is surely still accepted
    guard: bool = False  # a replay guard can refuse a duplicate


RULES = {
    "generic": Rules(None, mac=False),
    "fbs": Rules(("sfl",), mac=True, span=180.0, guard=True),  # minute stamps, +-120 s
    "host-pair": Rules((), mac=False),
    "host-pair-mac": Rules((), mac=True),
    "host-pair-per-datagram": Rules(("wrapped Kp",), mac=True),
    "skip": Rules(("n", "wrapped Kp"), mac=True, span=3600.0),  # n +-1 accepted
    "kdc-session": Rules(("ticket",), mac=True, span=8 * 3600.0),
    "photuris-session": Rules(("SPI",), mac=True),
}


def key(rules: Rules, d: Datagram, depth: int) -> tuple:
    """The key ``depth`` labels below the top key of ``d``'s pair."""
    return (d.pair,) + tuple(getattr(d, GRAIN[label]) for label in (rules.chain or ())[:depth])


def sealing(rules: Rules, d: Datagram) -> tuple:
    """The key that seals ``d`` (K_f under FBS, K_{S,D} under host-pair)."""
    return key(rules, d, len(rules.chain or ()))


def closure(rules: Rules, known: Iterable[tuple], wire: Iterable[Datagram]) -> FrozenSet[tuple]:
    """Everything derivable from ``known`` with the labels on ``wire``."""
    wire, known = list(wire), set(known)
    while True:
        derived = {
            key(rules, d, depth + 1)
            for d in wire
            for depth in range(len(rules.chain or ()))
            if key(rules, d, depth) in known
        }
        if derived <= known:
            return frozenset(known)
        known |= derived


def opens(rules: Rules, known: FrozenSet[tuple], d: Datagram) -> bool:
    """Does knowledge ``known`` read (and re-seal) datagram ``d``?"""
    return rules.chain is None or sealing(rules, d) in known
