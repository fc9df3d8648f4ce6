"""Compliant fixture for FBS007: narrow excepts that handle what they
catch.

Linted as if it lived at ``src/repro/core/protocol.py``.
"""

# fbslint: module=repro.core.protocol
from repro.core.errors import HeaderFormatError


class FBSEndpoint:
    def __init__(self, registry):
        self._c_rejected = registry.counter("datagrams_rejected")

    def unprotect(self, data):
        try:
            return self._decode(data)
        except HeaderFormatError:
            self._c_rejected.inc()
            raise

    def lookup(self, table, sfl):
        try:
            return table[sfl]
        except KeyError:
            return None

    def _decode(self, data):
        if len(data) < 32:
            raise HeaderFormatError("datagram too short")
        return data[32:]
