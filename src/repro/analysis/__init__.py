"""fbslint: whole-program key taint over the FBS tree.

The paper's security argument (Sections 5.2 and 6.1) rests on
``K_{S,D}`` and ``K_f`` staying secret.  *Knowledge Flow Analysis for
Security Protocols* (Torlak et al., PAPERS.md) makes the case for
checking such flow properties mechanically; this package is that check
for our tree, and nothing else.  Phase 1
(:mod:`repro.analysis.callgraph`) distills every module once into a
summary -- the one fact base -- and a project-wide symbol table + call
graph; phase 2 (:mod:`repro.analysis.dataflow`) runs one fixpoint over
it: key material carried from a derivation call (``flow_key``,
``master_key``, ``mac_key``, ``agree``, ...) to a print, log call,
f-string or ``==`` compare is a finding (FBS001) with its witness path.

What running code can show is checked there instead: key canaries in
every report producer's outputs (``tests/shim/canary.py``), one
``constant_time_equal`` per datagram at R8
(``tests/property/test_receive_contract.py``), and the syntactic repo
policy -- no ``assert`` in library code, no swallowed exception, no
process fan-out -- by plain ``ast``
(``tests/test_policy_structure.py``).

Run it as ``python -m repro.analysis [paths]`` (see
:mod:`repro.analysis.cli` for the exit codes) or ``make lint``.
"""

from repro.analysis.dataflow import Finding
from repro.analysis.engine import LintError, lint_paths, lint_source

__all__ = ["Finding", "LintError", "lint_paths", "lint_source"]
