"""Built-in fbslint rules.

Importing this package registers every rule with
:mod:`repro.analysis.base`.  Each module groups the rules guarding one
discipline:

* :mod:`~repro.analysis.rules.taint` -- FBS001 secret-flow taint;
* :mod:`~repro.analysis.rules.determinism` -- FBS002 wall clock,
  FBS003 seeded randomness;
* :mod:`~repro.analysis.rules.robustness` -- FBS004 assert-as-guard,
  FBS007 no swallowed failures;
* :mod:`~repro.analysis.rules.containment` -- FBS009 multiprocessing
  stays inside ``repro.load``;
* :mod:`~repro.analysis.rules.async_readiness` -- FBS010 no blocking
  calls in ``async def``;
* :mod:`~repro.analysis.rules.suppressions_hygiene` -- FBS012 unused
  suppression comments.

FBS001-FBS003, FBS010 and FBS012 are *project rules*: they define no
``check`` and their findings come from the whole-program passes in
:mod:`repro.analysis.dataflow` (or, for FBS012, from the engine's
suppression-filtering step).  The receive contract -- every rejection
counted once, only ``FBSError`` types out of the protocol surface, no
exception out of a baseline's receive hook -- is no rule: it is checked
on the running code by ``tests/property/test_receive_contract.py``.
"""

from repro.analysis.rules import (  # noqa: F401  (imports register rules)
    async_readiness,
    containment,
    determinism,
    robustness,
    suppressions_hygiene,
    taint,
)
