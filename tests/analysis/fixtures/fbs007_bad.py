"""Violating fixture for FBS007: taxonomy breaks, swallowed failures.

Linted as if it lived at ``src/repro/core/protocol.py``.
"""

# fbslint: module=repro.core.protocol
class FBSEndpoint:
    def protect(self, body, destination):
        if destination is None:
            raise ValueError("no destination")  # builtin from public API
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

    def close(self, handle):
        try:
            if handle is None:
                raise KeyError("no handle")  # caught two lines down ...
        except KeyError:
            raise  # ... and re-raised: a builtin out of the public API
