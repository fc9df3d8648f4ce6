"""Violating fixture for FBS001: key material reaches every banned sink.

Linted as if it lived at ``src/repro/core/session.py``.
"""

# fbslint: module=repro.core.session
import logging

log = logging.getLogger(__name__)


def leak(kdf, sfl, master, src, dst, header_mac):
    flow_key = kdf.flow_key(sfl, master, src, dst)
    print(flow_key)  # leak: key printed
    label = f"key={flow_key!r}"  # leak: key in an f-string
    log.debug("derived %s", flow_key)  # leak: key logged
    enc = flow_key[:8]
    if enc == header_mac:  # leak: variable-time compare on key material
        return label
    return None


def leak_lanes(np, kdf, sfl, master, src, dst):
    # The vector datapath moves MAC keys through ndarrays; taint must
    # survive the frombuffer/astype/tobytes round trip.
    flow_key = kdf.flow_key(sfl, master, src, dst)
    lanes = np.frombuffer(flow_key, dtype=np.uint8)
    print(lanes.astype(np.uint32).tobytes())  # leak: key via ndarray
    _show(np.take(lanes.view(np.uint32), 0))  # leak: key rows to a printing helper


def _show(rows):
    print(rows)


def leak_deferred(kdf, sfl, master, src, dst):
    # Code that runs later, or once at definition time, is still code.
    flow_key = kdf.flow_key(sfl, master, src, dst)
    audit = lambda: log.debug("key %s", flow_key)  # leak: in a lambda body

    def tagged(tag=repr(flow_key)):  # leak: in a default value
        return tag

    class Debug:
        banner = print(flow_key)  # leak: in a class body

        def dump(self):
            print(flow_key)  # leak: a closure reads the key

    return audit, tagged, Debug


def leak_packed(kdf, sfl, master, src, dst):
    # The packed-int MAC lanes move keys through int.from_bytes; taint
    # must survive the int, its lane arithmetic and its to_bytes.
    flow_key = kdf.flow_key(sfl, master, src, dst)
    packed = int.from_bytes(flow_key, "little")
    print(packed)  # leak: key as a packed int
    print((packed << 64 | packed).to_bytes(32, "little"))  # leak: packed lanes
    return packed == 0  # leak: variable-time compare on a packed key
