"""Compliant fixture for FBS007: typed raises, narrow excepts.

Linted as if it lived at ``src/repro/core/protocol.py`` -- so it also
honours FBS006 (rejection bookkeeping before every ReceiveError raise:
the engine calls its ``_rejected`` helper, which updates bound registry
counters).
"""

# fbslint: module=repro.core.protocol
from repro.core.errors import HeaderFormatError, MacMismatchError


class FBSEndpoint:
    def __init__(self, registry):
        self._c_rejected = registry.counter("datagrams_rejected")

    def _rejected(self, reason):
        self._c_rejected.inc()

    def unprotect(self, data, mac_ok):
        try:
            body = self._decode(data)
        except HeaderFormatError:
            self._rejected("header")
            raise
        if not mac_ok:
            self._rejected("mac")
            raise MacMismatchError("MAC mismatch")
        return body

    def lookup(self, table, sfl):
        try:
            if sfl not in table:
                raise KeyError(sfl)  # handled here, never leaves
        except KeyError:
            return None
        return table[sfl]

    def _decode(self, data):
        if len(data) < 32:
            self._rejected("header")
            raise HeaderFormatError("datagram too short")
        return data[32:]
