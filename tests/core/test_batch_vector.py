"""Kernel choice inside the one pipeline: lanes vs scalar.

``FBSConfig.vectorize`` only picks the kernels each pipeline stage
calls, so it must be invisible except in speed.  Wire bytes, bodies and
rejection reasons under either setting are checked against the
specification by ``tests/property/test_soft_state_machine.py``; here,
which kernel each stage calls and from which width, that lane errors
stay in the FBS taxonomy, and that the event sequence and the registry
do not depend on the switch.
"""

import pytest

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.errors import FBSError, UnknownPrincipalError
from repro.core.keying import Principal
from repro.crypto import vector
from repro.obs import RingBufferSink, Tracer


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
    is the directory refusing bob's first master-key upcall.  Bodies
    are long enough for one datagram alone to take the decrypt lane."""
    wires = alice.protect_batch(
        [bytes([i]) * (8 * vector.SINGLE_LANE_MIN_BLOCKS) for i in range(8)],
        bob.principal,
        secret=True,
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


#: Secret body sizes straddling the single-lane crossover, from one block
#: below to well above (the padded length is the body rounded up past
#: the next multiple of 8).
SINGLE_LANE_SIZES = [0, 1, 8, 512, 1500] + [
    8 * vector.SINGLE_LANE_MIN_BLOCKS + delta for delta in (-17, -9, -8, -1, 0, 7)
]


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

    def test_cbc_decrypt_lanes_start_at_their_crossover(self, lane_widths):
        # Two datagrams take lanes at any length; one takes a lane of its
        # own, its blocks in parallel, from SINGLE_LANE_MIN_BLOCKS blocks.
        alice, bob, _ = make_pair(vectorize=True)
        for size in SINGLE_LANE_SIZES:
            body = bytes([size & 0xFF]) * size
            wire = alice.protect(body, bob.principal, secret=True)
            del lane_widths[:]
            assert bob.unprotect(wire, alice.principal, secret=True) == body
            padded = len(wire) - bob.header_size
            lane = padded >= 8 * vector.SINGLE_LANE_MIN_BLOCKS
            assert lane_widths == ([("cbc_decrypt_many", 1, padded)] if lane else [])
        wires = alice.protect_batch([b"body"] * 2, bob.principal, secret=True)
        del lane_widths[:]
        bob.unprotect_batch(wires, alice.principal, secret=True)
        assert lane_widths[0] == ("cbc_decrypt_many", 2, 8)

    def test_batch_of_one_takes_the_same_route(self, lane_widths):
        # A batch of one long body takes the single lane too; a tampered
        # one is rejected as "mac" from the lane as from the block loop.
        a_v, b_v, _ = make_pair(vectorize=True)
        a_s, b_s, _ = make_pair(vectorize=False)
        body = b"\x5a" * 512
        wires = [a_v.protect(body, b_v.principal, secret=True)]
        assert wires == [a_s.protect(body, b_s.principal, secret=True)]
        del lane_widths[:]
        result_v = b_v.unprotect_batch(wires, a_v.principal, secret=True)
        result_s = b_s.unprotect_batch(wires, a_s.principal, secret=True)
        assert result_v.bodies == result_s.bodies == [body]
        assert lane_widths == [("cbc_decrypt_many", 1, 520)]
        bad = [wires[0][:-1] + bytes([wires[0][-1] ^ 1])]
        result_v = b_v.unprotect_batch(bad, a_v.principal, secret=True)
        result_s = b_s.unprotect_batch(bad, a_s.principal, secret=True)
        assert result_v.reasons == result_s.reasons == ["mac"]
        assert b_v.registry.snapshot() == b_s.registry.snapshot()


def kinds_of(sink):
    return [
        getattr(event, "reason", None) or type(event).__name__
        for event in sink.events
    ]


def one_datagram_per_call(vectorize):
    """Bob's endpoint and trace after receiving ``every_reason_stream``
    through ``unprotect``, one datagram a call."""
    alice, bob, clock, sink = traced_world(vectorize)
    wires, stamps = every_reason_stream(alice, bob)
    sink.clear()
    for wire, stamp in zip(wires, stamps):
        clock.now = stamp
        try:
            bob.unprotect(wire, alice.principal, secret=True)
        except FBSError:
            pass
    return bob, sink


class TestEventOrder:
    def test_protect_batch_trace_is_independent_of_vectorize(self):
        a_v, b_v, clk_v, sink_v = traced_world(vectorize=True)
        a_s, b_s, clk_s, sink_s = traced_world(vectorize=False)
        protect_all(a_v, b_v, clk_v, True, secret=True)
        protect_all(a_s, b_s, clk_s, False, secret=True)
        assert trace_of(sink_v) == trace_of(sink_s)
        assert a_v.registry.snapshot() == a_s.registry.snapshot()
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
        assert worlds[0][1].registry.snapshot() == worlds[1][1].registry.snapshot()
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
        _, sink = one_datagram_per_call(vectorize)
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

    def test_one_datagram_per_call_leaves_the_scalar_registry(self):
        # The single-lane decrypt counts decryptions, bytes and cache
        # traffic as the scalar block loop does, for every reason.
        (bob_v, _), (bob_s, _) = (one_datagram_per_call(v) for v in (True, False))
        assert bob_v.registry.snapshot() == bob_s.registry.snapshot()


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

