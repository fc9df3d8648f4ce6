"""Violating fixture for FBS006: silent rejections, raised or recorded.

Linted as if it lived at ``src/repro/baselines/receiver.py``.
"""

# fbslint: module=repro.baselines.receiver
from repro.core.errors import (
    HeaderFormatError,
    MacMismatchError,
    StaleTimestampError,
)


class Receiver:
    def __init__(self, metrics, codec):
        self.metrics = metrics
        self.codec = codec

    def unprotect(self, fresh, mac_ok):
        if not fresh:
            raise StaleTimestampError("stale timestamp")  # no counter
        if not mac_ok:
            raise MacMismatchError("bad mac")  # no counter
        return b"ok"

    def parse(self, data):
        try:
            return self.codec.decode(data)
        except HeaderFormatError:
            raise  # re-raised without counting the drop

    def note_rejection(self, result, i, reason, error):
        result.reasons[i] = reason  # recorded without counting the drop
        result.errors[i] = error

    def check(self, mac_ok):
        try:
            if not mac_ok:
                raise MacMismatchError("bad mac")  # caught two lines down ...
        except MacMismatchError:
            raise  # ... and re-raised without counting the drop
