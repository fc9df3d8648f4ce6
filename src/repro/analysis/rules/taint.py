"""FBS001: key material must never leak through debug/compare sinks.

The FBS security argument (paper Sections 5.2, 6.1) rests on flow and
master keys staying secret.  Any value produced by a key-derivation
call (``flow_key``, ``master_key``, ``encryption_key``, ``mac_key``,
``agree``, ...) is tainted; taint propagates through
assignment/slicing/concatenation, ndarray views and copies, calls,
returns and ``self.attr`` stores; and a tainted value reaching
``print``/``repr``/a logging call/an f-string is a leak.  A tainted
value in an ``==``/``!=`` comparison is a timing channel: digest and
key compares must go through
:func:`repro.crypto.mac.constant_time_equal`.

The findings are produced by the whole-program taint pass in
:mod:`repro.analysis.dataflow` over the sources and sinks
:mod:`repro.analysis.callgraph` records; this class is the rule's id,
severity, ``--list-rules`` row and DESIGN.md table entry.
"""

from __future__ import annotations

from repro.analysis.base import Rule, register
from repro.analysis.findings import Severity

__all__ = ["SecretFlowRule"]


@register
class SecretFlowRule(Rule):
    rule_id = "FBS001"
    name = "secret-flow-taint"
    severity = Severity.ERROR
    description = (
        "key-derivation results must not reach print/repr/logging/f-strings "
        "(taint follows ndarray views/copies), and must be compared via "
        "constant_time_equal, never ==/!="
    )
    rationale = "paper SS5.2/SS6.1 (key secrecy); DESIGN.md 'Enforced invariants'"
