"""Violating fixture for FBS007: swallowed failures.

Linted as if it lived at ``src/repro/core/protocol.py``.
"""

# fbslint: module=repro.core.protocol
class FBSEndpoint:
    def protect(self, body):
        try:
            return self._encode(body)
        except Exception:
            pass  # swallowed failure
        return b""

    def _encode(self, body):
        try:
            return bytes(body)
        except:  # bare except
            return b""
