"""fbslint: static enforcement of the FBS security invariants.

The paper's security argument rests on properties the rest of this
repository upholds by convention -- constant-time MAC compares, seeded
randomness, a virtual-time netsim.  *Knowledge Flow Analysis for
Security Protocols* (Torlak et al., PAPERS.md) makes the case for
checking such flow properties mechanically; this package is that check
for our tree: a two-phase whole-program analyzer.  Phase 1
(:mod:`repro.analysis.callgraph`) parses every module once into a
summary -- the one fact base -- and a project-wide symbol table + call
graph; phase 2 (:mod:`repro.analysis.dataflow`) runs two graph
algorithms over it, each written once -- label propagation
(key-material taint with source-to-sink witnesses) and transitive
reach (impurity; async-blocking) -- each the only detector of its
rules, a same-function flow being the zero-hop case.  The purely
syntactic invariants (asserts, bare excepts, multiprocessing imports)
are per-file ``check`` methods under :mod:`repro.analysis.rules`.
Together: eight rules, FBS001-FBS012 less four retired ids.  The
package keeps only what a whole-program analyzer alone can check: the
32-byte header layout, once FBS005, is a property test over
``FBSHeader``'s real bytes (``tests/core/test_header.py``), and the
receive contract, once FBS006 and half of FBS007, is a property over
every receive surface driven with adversarial bytes
(``tests/property/test_receive_contract.py``).

Run it as ``python -m repro.analysis [paths]`` (see
:mod:`repro.analysis.cli` for the exit-code contract) or through
``make lint``.  DESIGN.md's "Enforced invariants" section documents
each rule (the table is generated from the registry; ``--check-docs``
keeps it honest) and how to suppress a false positive -- an inline
``# fbslint: disable=RULE`` comment, the one way a finding is accepted.
"""

from repro.analysis.base import Rule, all_rules, get_rule, register
from repro.analysis.context import ModuleContext
from repro.analysis.engine import (
    LintError,
    LintResult,
    lint_paths,
    lint_source,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.suppressions import SuppressionIndex

__all__ = [
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "ModuleContext",
    "LintError",
    "LintResult",
    "lint_source",
    "lint_paths",
    "Finding",
    "Severity",
    "SuppressionIndex",
]
