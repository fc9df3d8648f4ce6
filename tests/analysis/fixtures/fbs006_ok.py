"""Compliant fixture for FBS006: every rejection bumps a counter first.

Linted as if it lived at ``src/repro/baselines/receiver.py``.
Exercises the accepted shapes: direct sibling bump, bump just before
the enclosing ``if``, bump before a bare re-raise, and a recorded (not
raised) rejection stored by the helper that bumps the labeled counter.
"""

# fbslint: module=repro.baselines.receiver
from repro.core.errors import (
    HeaderFormatError,
    MacMismatchError,
    StaleTimestampError,
)


class Receiver:
    def __init__(self, metrics, codec, registry):
        self.metrics = metrics
        self.codec = codec
        self._c_rejected_by_reason = {
            "mac": registry.counter("datagrams_rejected", reason="mac")
        }

    def unprotect(self, fresh, mac_ok):
        if not fresh:
            self.metrics.stale_timestamps += 1
            raise StaleTimestampError("stale timestamp")
        self.metrics.mac_failures += 1
        if not mac_ok:
            raise MacMismatchError("bad mac")
        return b"ok"

    def parse(self, data):
        try:
            return self.codec.decode(data)
        except HeaderFormatError:
            self.metrics.header_errors += 1
            raise

    def probe(self, mac_ok):
        try:
            if not mac_ok:
                raise MacMismatchError("bad mac")  # handled here: no rejection
        except MacMismatchError:
            return None
        return b"ok"

    def _rejected(self, result, i, reason, error):
        self._c_rejected_by_reason[reason].inc()
        result.reasons[i] = reason
        result.errors[i] = error
