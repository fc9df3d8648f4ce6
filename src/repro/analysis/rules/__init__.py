"""Built-in fbslint rules.

Importing this package registers every rule with
:mod:`repro.analysis.base`.  Each module groups the rules guarding one
discipline:

* :mod:`~repro.analysis.rules.taint` -- FBS001 secret-flow taint;
* :mod:`~repro.analysis.rules.robustness` -- FBS004 assert-as-guard,
  FBS007 no swallowed failures;
* :mod:`~repro.analysis.rules.containment` -- FBS009 multiprocessing
  stays inside ``repro.load``;
* :mod:`~repro.analysis.rules.suppressions_hygiene` -- FBS012 unused
  suppression comments.

FBS001 and FBS012 are *project rules*: they define no ``check``; their
findings come from the whole-program taint pass in
:mod:`repro.analysis.dataflow` and from the engine's
suppression-filtering step.  What the running code can show is no
rule: the receive contract (every rejection counted once, only
``FBSError`` types out of the protocol surface) is checked by
``tests/property/test_receive_contract.py``, the wall clock and
unseeded randomness by ``tests/test_report_determinism.py`` and its
clock-offset shim, and blocking calls on the event loop by the audit
hook in ``tests/shim/loopguard.py``.
"""

from repro.analysis.rules import (  # noqa: F401  (imports register rules)
    containment,
    robustness,
    suppressions_hygiene,
    taint,
)
