"""Negative control for tests/test_policy_structure.py: swallowed failures.

Checked as if it lived at ``src/repro/core/protocol.py``.
"""

# stands in for module repro.core.protocol
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

    def _decode_all(self, datagrams):
        headers = []
        for datagram in datagrams:
            try:
                headers.append(self._encode(datagram))
            except Exception:
                continue  # swallowed failure, one datagram at a time
        return headers
