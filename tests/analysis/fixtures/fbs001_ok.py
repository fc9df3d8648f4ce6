"""Compliant fixture for FBS001: key material stays off debug/compare sinks.

Linted as if it lived at ``src/repro/core/session.py``.
"""

# fbslint: module=repro.core.session
from repro.crypto.mac import constant_time_equal


def verify(kdf, sfl, master, src, dst, header_mac, compute_mac):
    flow_key = kdf.flow_key(sfl, master, src, dst)
    expected = compute_mac(flow_key)
    if not constant_time_equal(expected, header_mac):
        return None
    return kdf.encryption_key(flow_key)


def describe(sfl):
    # Flow labels are public header fields; rendering them is fine.
    return f"flow {sfl:#x}"


def stamp_headers(np, confounders):
    # Public header fields through ndarrays are not key material.
    head = np.asarray(confounders, dtype=np.uint32)
    return head.astype(np.uint8).tobytes()


def show_headers(np, confounders):
    _show(np.frombuffer(confounders, dtype=np.uint8).view(np.uint32))  # public


def _show(rows):
    print(rows)


def longest(kdf, sfl, master, src, dst, labels):
    flow_key = kdf.flow_key(sfl, master, src, dst)
    # The lambda's own parameter shadows the key: it prints a label.
    return flow_key, max(labels, key=lambda flow_key: print(flow_key))
