"""The clock-offset shim: one side of the report-determinism differential.

``tests/test_report_determinism.py`` puts this directory first on
``PYTHONPATH`` for its ``PYTHONHASHSEED=2`` side only, so any Python
child process inherits it; CI's nightly resilience matrix does the same.
Python imports ``sitecustomize`` at startup, before any ``repro``
module, so that side runs

* with every wall clock read 10**6 s ahead:
  ``time.time``, ``monotonic`` and ``perf_counter`` with their ``_ns``
  forms, and ``datetime.now``/``today``/``utcnow``.  A report byte that
  depends on a clock reading differs between the two sides; one that
  depends only on the difference of two readings of one clock (the
  transport's ``now``, the event loop's timers) does not;
* under the blocking-call audit hook (``loopguard.py``);
* with key canaries (``canary.py``): every key ``repro`` derives is
  recorded on stderr, logs render at DEBUG and every ``FBSError`` logs
  its text, so the test can search the run's outputs for the keys.
"""

import datetime
import time

import canary
import loopguard

OFFSET_S = 10 ** 6


def _ahead(clock, by):
    return lambda: clock() + by


for _name in ("time", "monotonic", "perf_counter"):
    setattr(time, _name, _ahead(getattr(time, _name), OFFSET_S))
    setattr(time, _name + "_ns", _ahead(getattr(time, _name + "_ns"), OFFSET_S * 10 ** 9))


class _AheadDatetime(datetime.datetime):
    # ``today`` reads ``time.time`` itself, so it is ahead already.
    @classmethod
    def now(cls, tz=None):
        return cls.fromtimestamp(time.time(), tz)

    @classmethod
    def utcnow(cls):
        return cls.fromtimestamp(time.time(), datetime.timezone.utc).replace(tzinfo=None)


datetime.datetime = _AheadDatetime
# Before ``repro`` is imported: ``from time import sleep`` binds the wrapper.
loopguard.install()
canary.install()
