"""Kernel choice inside the one pipeline: lanes vs scalar, and fallback.

``FBSConfig.vectorize`` only picks the kernels each pipeline stage
calls, so it must be invisible except in speed.  Wire bytes, bodies and
rejection reasons under either setting are checked against the
specification by ``tests/property/test_soft_state_machine.py``; here,
which kernel each stage calls, that lane errors stay in the FBS
taxonomy, that the event sequence does not depend on the switch, and
(in a subprocess) that the endpoint falls back to the scalar kernels
when numpy is absent.
"""

import os
import subprocess
import sys

import pytest

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.errors import FBSError, UnknownPrincipalError
from repro.core.keying import Principal
from repro.crypto import vector
from repro.obs import RingBufferSink, Tracer

pytestmark = pytest.mark.skipif(
    not __import__("repro.crypto.vector", fromlist=["HAVE_NUMPY"]).HAVE_NUMPY,
    reason="vector differential needs numpy (fallback covered separately)",
)


class Clock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now


def make_pair(vectorize, config=None, seed=11):
    base = config or FBSConfig(replay_guard_size=256)
    clock = Clock()
    domain = FBSDomain(seed=seed, config=base.with_(vectorize=vectorize))
    alice = domain.make_endpoint(Principal.from_name("alice"), now=clock)
    bob = domain.make_endpoint(Principal.from_name("bob"), now=clock)
    return alice, bob, clock


# Mixed sizes on purpose: empty body, sub-block, exact blocks, large --
# the ragged-batch paths of every kernel.
BODIES = [
    b"",
    b"a",
    b"sevenby",
    b"8 bytes!",
    bytes(range(9)),
    bytes(255),
    bytes(256),
    b"x" * 1500,
    b"tail",
]
STAMPS = [0.25 * i for i in range(len(BODIES))]


def protect_all(alice, bob, clock, vector_on, secret):
    clock.now = STAMPS[-1]
    return alice.protect_batch(
        BODIES, bob.principal, secret=secret, stamps=STAMPS
    )


def traced_world(vectorize):
    clock = Clock()
    sink = RingBufferSink(capacity=4096)
    config = FBSConfig(vectorize=vectorize, replay_guard_size=64)
    domain = FBSDomain(seed=29, config=config)
    tracer = Tracer(sink, now=clock)
    alice = domain.make_endpoint(
        Principal.from_name("alice"), now=clock, tracer=tracer
    )
    bob = domain.make_endpoint(
        Principal.from_name("bob"), now=clock, tracer=tracer
    )
    return alice, bob, clock, sink


def every_reason_stream(alice, bob):
    """Eight secret datagrams of one flow: header, stale, keying, ok,
    bad pad, bad MAC, duplicate (of the ok one), ok.  The keying failure
    is the directory refusing bob's first master-key upcall."""
    wires = alice.protect_batch(
        [bytes([i]) * 40 for i in range(8)], bob.principal, secret=True
    )
    h = bob.header_size
    wires[0] = wires[0][:7]
    wires[4] = wires[4][:-1] + bytes([wires[4][-1] ^ 1])
    wires[5] = wires[5][:h] + bytes([wires[5][h] ^ 0x80]) + wires[5][h + 1 :]
    wires[6] = wires[3]
    stamps = [0.0, 500.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    real = bob.mkd.upcall_master_key
    upcalls = []

    def flaky(peer):
        upcalls.append(peer)
        if len(upcalls) == 1:
            raise UnknownPrincipalError("directory unreachable")
        return real(peer)

    bob.mkd.upcall_master_key = flaky
    return wires, stamps


REASONS = [
    "header", "stale_timestamp", "keying", None, "mac", "mac", "duplicate", None,
]  # fmt: skip


def trace_of(sink):
    return [(type(event).__name__, event.to_dict()) for event in sink.events]


class TestLaneKernelErrorsStayInTheTaxonomy:
    """The lane kernels guard their own arguments with ``ValueError``;
    the protocol surface raises ``FBSError`` subclasses only
    (``tests/property/test_receive_contract.py`` checks that over
    adversarial bytes), so the pipelines run every kernel through
    ``protocol._lanes``, which translates."""

    @pytest.mark.parametrize("kernel", ["keyed_md5_many", "cbc_encrypt_many"])
    def test_send_side(self, monkeypatch, kernel):
        alice, bob, clock = make_pair(vectorize=True)
        monkeypatch.setattr(f"repro.crypto.vector.{kernel}", _not_parallel)
        # Wide enough for every send-side stage to take its lanes.
        bodies = BODIES * -(-vector.CBC_ENCRYPT_MIN_LANES // len(BODIES))
        with pytest.raises(FBSError, match="not parallel"):
            alice.protect_batch(bodies, bob.principal, secret=True)

    @pytest.mark.parametrize("kernel", ["cbc_decrypt_many", "keyed_md5_many"])
    def test_receive_side(self, monkeypatch, kernel):
        alice, bob, clock = make_pair(vectorize=True)
        wires = protect_all(alice, bob, clock, True, secret=True)
        monkeypatch.setattr(f"repro.crypto.vector.{kernel}", _not_parallel)
        with pytest.raises(FBSError, match="not parallel"):
            bob.unprotect_batch(wires, alice.principal, secret=True, stamps=STAMPS)


def _not_parallel(*_args, **_kwargs):
    raise ValueError("lanes are not parallel")


@pytest.fixture
def lane_widths(monkeypatch):
    """Every lane kernel call the pipelines make, as ``(kernel, lanes,
    first body length)``."""
    calls = []
    for name in ("keyed_md5_many", "cbc_encrypt_many", "cbc_decrypt_many"):

        def spy(*args, _real=getattr(vector, name), _name=name):
            calls.append((_name, len(args[-1]), len(args[-1][0])))
            return _real(*args)

        monkeypatch.setattr(vector, name, spy)
    return calls


class TestLanesPerStage:
    """Each stage chooses lanes from the datagrams that reach it, at the
    stage's measured crossover."""

    @pytest.mark.parametrize("garbage", [1, 63])
    @pytest.mark.parametrize("size", [64, 1024])
    @pytest.mark.parametrize("secret", [False, True])
    def test_a_lone_survivor_never_runs_a_one_lane_batch(
        self, lane_widths, garbage, size, secret
    ):
        alice, bob, _ = make_pair(vectorize=True)
        body = b"\x5a" * size
        wires = alice.protect_batch([body], bob.principal, secret=secret)
        del lane_widths[:]
        result = bob.unprotect_batch(
            [b"\x00" * 7] * garbage + wires, alice.principal, secret=secret
        )
        assert result.reasons == ["header"] * garbage + [None]
        assert result.bodies[-1] == body
        # One lane is only ever _decrypt's single-lane route, which has
        # its own crossover.
        assert [
            call
            for call in lane_widths
            if call[1] < 2
            and not (
                call[0] == "cbc_decrypt_many"
                and call[2] >= 8 * vector.SINGLE_LANE_MIN_BLOCKS
            )
        ] == []

    def test_cbc_encrypt_lanes_start_at_their_crossover(self, lane_widths):
        alice, bob, _ = make_pair(vectorize=True)
        for n in (2, vector.CBC_ENCRYPT_MIN_LANES - 1, vector.CBC_ENCRYPT_MIN_LANES):
            del lane_widths[:]
            alice.protect_batch([b"body"] * n, bob.principal, secret=True)
            widths = {
                name: [lanes for kernel, lanes, _ in lane_widths if kernel == name]
                for name in ("keyed_md5_many", "cbc_encrypt_many")
            }
            assert widths == {
                "keyed_md5_many": [n],
                "cbc_encrypt_many": [n] if n >= vector.CBC_ENCRYPT_MIN_LANES else [],
            }


def kinds_of(sink):
    return [
        getattr(event, "reason", None) or type(event).__name__
        for event in sink.events
    ]


class TestEventOrder:
    def test_protect_batch_trace_is_independent_of_vectorize(self):
        a_v, b_v, clk_v, sink_v = traced_world(vectorize=True)
        a_s, b_s, clk_s, sink_s = traced_world(vectorize=False)
        protect_all(a_v, b_v, clk_v, True, secret=True)
        protect_all(a_s, b_s, clk_s, False, secret=True)
        assert trace_of(sink_v) == trace_of(sink_s)
        # Emitted after the cipher stage: the event carries the wire
        # size (PKCS#7 always pads), not the plaintext size.
        sizes = [e["size"] for name, e in trace_of(sink_v) if name == "DatagramProtected"]
        assert sizes == [(len(body) | 7) + 1 for body in BODIES]

    def test_unprotect_batch_trace_is_independent_of_vectorize(self):
        worlds = [traced_world(vectorize) for vectorize in (True, False)]
        traces = []
        for alice, bob, clock, sink in worlds:
            wires, stamps = every_reason_stream(alice, bob)
            sink.clear()
            result = bob.unprotect_batch(
                wires, alice.principal, secret=True, stamps=stamps
            )
            assert result.reasons == REASONS
            traces.append(trace_of(sink))
        assert traces[0] == traces[1]
        # The staged order: keying and inline rejections in datagram
        # order, then decrypt failures, then MAC failures, then the
        # in-order replay-guard and delivery pass.
        assert kinds_of(worlds[0][3]) == [
            "header",
            "stale_timestamp",
            "CacheMiss", "keying",
            "CacheMiss", "CacheMiss", "CacheMiss", "KeyDerived", "CryptoStateBuilt",
            "CacheHit", "CacheHit", "CacheHit", "CacheHit",
            "mac",
            "mac",
            "DatagramAccepted",
            "ReplayDropped", "duplicate",
            "DatagramAccepted",
        ]  # fmt: skip

    @pytest.mark.parametrize("vectorize", [True, False])
    def test_one_datagram_per_call_keeps_the_scalar_order(self, vectorize):
        # n=1 has no stages to reorder: each datagram's events stay
        # together, exactly as the scalar loop before the merge.
        alice, bob, clock, sink = traced_world(vectorize)
        wires, stamps = every_reason_stream(alice, bob)
        sink.clear()
        for wire, stamp in zip(wires, stamps):
            clock.now = stamp
            try:
                bob.unprotect(wire, alice.principal, secret=True)
            except FBSError:
                pass
        assert kinds_of(sink) == [
            "header",
            "stale_timestamp",
            "CacheMiss", "keying",
            "CacheMiss", "CacheMiss", "CacheMiss", "KeyDerived", "CryptoStateBuilt",
            "DatagramAccepted",
            "CacheHit", "mac",
            "CacheHit", "mac",
            "CacheHit", "ReplayDropped", "duplicate",
            "CacheHit", "DatagramAccepted",
        ]  # fmt: skip


class TestEmptyBatchCounters:
    def test_protect_empty_touches_nothing(self):
        alice, bob, _ = make_pair(vectorize=True)
        before = alice.registry.snapshot()
        assert alice.protect_batch([], bob.principal, secret=True) == []
        assert alice.registry.snapshot() == before

    def test_unprotect_empty_touches_nothing(self):
        alice, bob, _ = make_pair(vectorize=True)
        before = bob.registry.snapshot()
        result = bob.unprotect_batch([], alice.principal, secret=True)
        assert result.bodies == [] and result.reasons == []
        assert bob.registry.snapshot() == before


_NO_NUMPY_SCRIPT = r"""
import sys

import repro.crypto.vector as vector

assert not vector.HAVE_NUMPY, "numpy stub did not take effect"
try:
    vector.keyed_md5_many([b"k"], [b"m"])
except RuntimeError:
    pass
else:
    sys.exit("kernel stub should raise without numpy")

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.keying import Principal

domain = FBSDomain(seed=3, config=FBSConfig(vectorize=True))
alice = domain.make_endpoint(Principal.from_name("alice"), now=lambda: 0.0)
bob = domain.make_endpoint(Principal.from_name("bob"), now=lambda: 0.0)
assert not alice._vector_ok, "endpoint must fall back without numpy"
bodies = [b"", b"one", b"x" * 100]
wires = alice.protect_batch(bodies, bob.principal, secret=True)
result = bob.unprotect_batch(wires, alice.principal, secret=True)
assert result.bodies == bodies, result.reasons
# A secret body far above the single-lane crossover, one datagram at a
# time: the n=1 route must also stand down without numpy.
long_body = b"y" * 512
assert 512 >= 8 * vector.SINGLE_LANE_MIN_BLOCKS
wire = alice.protect(long_body, bob.principal, secret=True)
assert bob.unprotect(wire, alice.principal, secret=True) == long_body
wire = alice.protect(long_body, bob.principal, secret=True)
solo = bob.unprotect_batch([wire], alice.principal, secret=True)
assert solo.bodies == [long_body], solo.reasons
print("FALLBACK-OK")
"""


class TestNumpylessFallback:
    def test_batch_roundtrip_without_numpy(self, tmp_path):
        # A numpy stub that raises ImportError, placed ahead of the
        # real one: the endpoint must silently take the scalar loop.
        (tmp_path / "numpy.py").write_text(
            'raise ImportError("numpy disabled for fallback test")\n'
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tmp_path), os.path.abspath(src)]
        )
        proc = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "FALLBACK-OK" in proc.stdout
