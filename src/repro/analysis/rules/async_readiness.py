"""FBS010: no blocking calls inside ``async def``.

The ROADMAP's datagram gateway will put the FBS receive path behind an
asyncio event loop.  A single blocking call -- ``time.sleep``, a sync
socket operation, ``subprocess``, blocking file I/O -- stalls *every*
flow multiplexed on that loop, which in netsim terms turns one slow
endpoint into whole-trace head-of-line blocking.  The rule bans the
blocking primitives inside ``async def`` bodies, and (via the
whole-program blocking-propagation pass in
:mod:`repro.analysis.dataflow`) calls from async functions to sync
helpers that transitively reach one.

The findings are produced by the interprocedural pass; this class
exists so the rule has an id, a severity, a ``--list-rules`` row, and a
DESIGN.md table entry like every other rule.
"""

from __future__ import annotations

from repro.analysis.base import Rule, register
from repro.analysis.findings import Severity

__all__ = ["AsyncBlockingRule"]


@register
class AsyncBlockingRule(Rule):
    rule_id = "FBS010"
    name = "no-blocking-in-async"
    severity = Severity.WARNING
    description = (
        "async def bodies must not reach blocking calls (time.sleep, sync "
        "sockets, subprocess, blocking file I/O), even through sync helpers"
    )
    rationale = (
        "ROADMAP item 3: the asyncio gateway multiplexes every flow on one "
        "event loop; a blocked loop is head-of-line blocking for the whole "
        "trace"
    )
