"""Compliant twin for tests/test_policy_structure.py: narrow excepts that
handle what they catch.

Checked as if it lived at ``src/repro/core/protocol.py``.
"""

# stands in for module repro.core.protocol
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
