"""The receive contract, checked on the running code with adversarial bytes.

Figure 4's FBSReceive -- and every scheme the paper compares it with --
faces whatever bytes an insecure datagram transport delivers.  Its
``return error`` paths make two promises, checked here on every public
receive surface:

* **Taxonomy.**  ``FBSEndpoint.unprotect``, ``protect`` and
  ``protect_batch`` raise :class:`FBSError` types only, and
  ``unprotect`` raises exactly the error its batch recorded;
  ``unprotect_batch`` never raises; ``FBSGateway.serve_once`` returns
  one outcome of the closed ``enqueued | dropped:* | rejected:<reason>``
  set; no ``baselines.SCHEMES`` module, installed on a netsim segment,
  lets an exception out of ``Simulator.run()``.
* **Accounting.**  Per batch, ``datagrams_received`` grows by n, and n
  is accepted plus the sum of ``datagrams_rejected{reason}``; each
  index holds one body or one reason; the ``DatagramRejected`` events
  equal the counter deltas reason by reason; the recorded error has the
  type its reason names; the gateway's ledger agrees with its registry;
  a baseline counts every datagram it does not bypass once, accepted or
  rejected.
* **Specification.**  For the vectorized pair (the IP mapping's layout),
  each datagram's body or reason is what ``tests/spec/fbs_spec.py``'s
  ``spec_receive`` says, guard on and off: a garbled secret body that
  reaches the decrypt lanes is judged by the reference DES.

The bytes are the ``garbage`` strategy of ``test_codec_props`` (0-128
bytes, up to twice a nominal 64-byte datagram) and real datagrams with
a bit flipped, cut short, extended, given another datagram's header
field, or replayed, from enrolled and unenrolled senders.  The endpoint
runs are the vectorized pair (keyed MD5 + DES-CBC, lane kernels at
each stage's crossover) and a scalar-only suite, with and
without the replay guard, secret on and off.

Every world is built fresh per example, so a failure replays exactly.
Each check returns the violations it saw (empty is a pass); the planted
defects at the bottom show that the checks report them.
"""

import struct
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SCHEMES, install_scheme
from repro.baselines.sealed import SealedDatagramModule
from repro.core.config import AlgorithmSuite, FBSConfig, MacAlgorithm
from repro.core.deploy import FBSDomain
from repro.core.errors import (
    FBSError,
    HeaderFormatError,
    MacMismatchError,
    ReceiveError,
    StaleTimestampError,
)
from repro.core.header import FBSHeader
from repro.core.ip_mapping import is_bypass
from repro.core.keying import Principal
from repro.core.protocol import FBSEndpoint
from repro.core.replay_guard import DuplicateDatagramError
from repro.crypto.des import DES
from repro.crypto.mac import constant_time_equal, keyed_md5
from repro.crypto.modes import decrypt_cbc
from repro.gateway.tenants import GatewayConfig
from repro.netsim import Network
from repro.netsim.ipv4 import IPProtocol, IPv4Header, IPv4Packet
from repro.netsim.sockets import UdpSocket
from repro.obs import REJECTION_REASONS, DatagramRejected, RingBufferSink
from tests.gateway.helpers import TENANT_PORT_BASE, gateway_site, serve_one
from tests.property.test_codec_props import garbage
from tests.spec.fbs_spec import Domain, spec_receive

#: The error type each rejection reason records (``keying`` is any
#: FBSError that is not a receive-validation failure).
ERROR_OF = {
    "header": HeaderFormatError,
    "stale_timestamp": StaleTimestampError,
    "keying": FBSError,
    "mac": MacMismatchError,
    "duplicate": DuplicateDatagramError,
}

GATEWAY_OUTCOMES = {"enqueued", "dropped:backpressure"} | {
    f"rejected:{reason}" for reason in REJECTION_REASONS
}

MUTATIONS = ("none", "flip", "truncate", "extend", "splice", "replay")

#: A real datagram carrying ``body``, then mutated with position or
#: length ``k`` and byte ``b``: ``(mutation, body, k, b)``.
_real = st.tuples(
    st.sampled_from(MUTATIONS),
    st.binary(max_size=160),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=255),
)
_garbage = garbage.map(lambda data: ("garbage", data))
#: One datagram to deliver: garbage (``("garbage", bytes)``) one time
#: in four, else a real one.
recipes = st.integers(min_value=0, max_value=3).flatmap(
    lambda i: _garbage if i == 0 else _real
)


def mutate(wire, pool, op, k, b, fields):
    """``wire`` after mutation ``op``.  ``pool`` holds earlier real
    datagrams: a replay sends the latest again, a splice takes one of
    its header ``fields`` from one of them."""
    if op == "flip":
        i = k % len(wire)
        return wire[:i] + bytes([wire[i] ^ b]) + wire[i + 1 :]
    if op == "truncate":
        return wire[: k % len(wire)]
    if op == "extend":
        return wire + bytes([b]) * (1 + k % 16)
    if op == "splice":
        donor = pool[-1 - b % len(pool)]
        offset, width = fields[k % len(fields)]
        return wire[:offset] + donor[offset : offset + width] + wire[offset + width :]
    if op == "replay":
        return pool[-1]
    return wire


def assemble(batch, wires, pool, fields):
    """The bytes a recipe list stands for.  ``wires`` are the real
    datagrams protected for it, in order; each joins ``pool`` after
    its own mutation."""
    real = iter(wires)
    out = []
    for recipe in batch:
        if recipe[0] == "garbage":
            out.append(recipe[1])
            continue
        op, _body, k, b = recipe
        wire = next(real)
        out.append(mutate(wire, pool, op, k, b, fields))
        pool.append(wire)
    return out


def named(exc):
    """An exception as ``module.Type: message``."""
    return f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}"


def fbs_fields(mac_bytes):
    """(offset, width) of sfl, confounder, MAC and timestamp."""
    return [(0, 8), (8, 4), (12, mac_bytes), (12 + mac_bytes, 4)]


# -- the endpoint: FBSEndpoint.protect/unprotect(_batch) ----------------------


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


SUITES = {
    # The vectorized pair: lane kernels at each stage's crossover.
    "md5-des": AlgorithmSuite(),
    # No lane kernel: scalar at every n.
    "hmac-shs": AlgorithmSuite(mac=MacAlgorithm.HMAC_SHS, mac_bits=160),
}


def endpoint_world(suite="md5-des", guard=True):
    """alice (enrolled) sends to bob (traced into ``ring``); mallory is
    never enrolled.  ``pool`` starts with a datagram ten minutes old.
    The vectorized pair is the IP mapping's layout, so its world carries
    the specification (``spec``, None for the other suite) and the
    specification's replay memory (``seen``)."""
    clock = Clock()
    config = FBSConfig(suite=SUITES[suite], replay_guard_size=64 if guard else 0)
    domain = FBSDomain(seed=25, config=config)
    alice = domain.make_endpoint(Principal.from_name("alice"), now=clock)
    ring = RingBufferSink()
    bob = domain.make_endpoint(Principal.from_name("bob"), now=clock, tracer=ring)
    stale = alice.protect(b"ten minutes ago", bob.principal)
    clock.now = 600.0
    return SimpleNamespace(
        alice=alice,
        bob=bob,
        clock=clock,
        spec=Domain.enrolled(domain, alice.principal, bob.principal)
        if suite == "md5-des"
        else None,
        seen=[],
        mallory=Principal.from_name("mallory"),
        ring=ring,
        pool=[stale],
        fields=fbs_fields(config.suite.mac_bytes),
    )


def receive_counts(endpoint):
    reg = endpoint.registry
    return (
        reg.counter("datagrams_received").value,
        reg.counter("datagrams_accepted").value,
        {r: reg.counter("datagrams_rejected", reason=r).value for r in REJECTION_REASONS},
    )


def accounting(endpoint, ring, before, n, result):
    """Violations of the accounting contract by one receive of ``n``
    datagrams that produced ``result`` (counters read against
    ``before``; ``ring`` holds only this receive's events)."""
    received, accepted, rejected = receive_counts(endpoint)
    d_received = received - before[0]
    d_accepted = accepted - before[1]
    d_rejected = {r: rejected[r] - before[2][r] for r in REJECTION_REASONS}
    d_rejected = {r: d for r, d in d_rejected.items() if d}
    problems = []
    if d_received != n:
        problems.append(f"datagrams_received grew by {d_received}, not n={n}")
    if d_accepted + sum(d_rejected.values()) != n:
        problems.append(
            f"accepted + rejected = {d_accepted} + {d_rejected} does not cover n={n}"
        )
    if d_accepted != result.accepted:
        problems.append(
            f"datagrams_accepted grew by {d_accepted}, {result.accepted} delivered"
        )
    if d_rejected != result.rejected:
        problems.append(f"counters {d_rejected} != recorded reasons {result.rejected}")
    events = dict(Counter(e.reason for e in ring.of_type(DatagramRejected)))
    if events != d_rejected:
        problems.append(
            f"DatagramRejected events {events} != counter deltas {d_rejected}"
        )
    for i in range(n):
        body, reason = result.bodies[i], result.reasons[i]
        error, header = result.errors[i], result.headers[i]
        if (body is None) == (reason is None):
            problems.append(f"[{i}] body {body!r} with reason {reason!r}")
        if (error is None) != (reason is None):
            problems.append(f"[{i}] error {error!r} with reason {reason!r}")
        if reason is None:
            continue
        expected = ERROR_OF.get(reason)
        if expected is None:
            problems.append(f"[{i}] reason {reason!r} is not in REJECTION_REASONS")
        elif not isinstance(error, expected) or (
            reason == "keying" and isinstance(error, ReceiveError)
        ):
            problems.append(f"[{i}] reason {reason!r} recorded {error!r}")
        if (header is None) != (reason == "header"):
            problems.append(f"[{i}] header {header!r} under reason {reason!r}")
    return problems


def check_batch(endpoint, ring, datagrams, source, secret):
    """``unprotect_batch`` never raises, and accounts for every datagram."""
    before = receive_counts(endpoint)
    ring.clear()
    try:
        result = endpoint.unprotect_batch(datagrams, source, secret=secret)
    except Exception as exc:
        return [f"unprotect_batch raised {named(exc)}"]
    return accounting(endpoint, ring, before, len(datagrams), result)


def check_unprotect(endpoint, ring, data, source, secret):
    """``unprotect`` raises exactly the error its batch recorded (an
    FBSError, by the accounting check) or returns its body."""
    before = receive_counts(endpoint)
    ring.clear()
    seen = []
    batch = endpoint.unprotect_batch

    def spy(*args, **kwargs):
        seen.append(batch(*args, **kwargs))
        return seen[-1]

    endpoint.unprotect_batch = spy
    raised = body = None
    try:
        body = endpoint.unprotect(data, source, secret=secret)
    except Exception as exc:
        raised = exc
    finally:
        del endpoint.unprotect_batch
    if not seen:
        return [f"unprotect raised {named(raised)} outside its pipeline"]
    result = seen[0]
    problems = accounting(endpoint, ring, before, 1, result)
    if raised is not result.errors[0]:
        problems.append(f"unprotect raised {raised!r}, recorded {result.errors[0]!r}")
    elif raised is None and body != result.bodies[0]:
        problems.append("unprotect returned another body than it recorded")
    return problems


def received(endpoint, ring, datagrams, source, secret):
    """``(result, contract violations)`` of one receive: ``unprotect``
    for one datagram, ``unprotect_batch`` for more.  ``result`` is the
    batch result the receive recorded, or None if it recorded none."""
    results = []
    real = endpoint.unprotect_batch
    endpoint.unprotect_batch = lambda *a, **k: results.append(real(*a, **k)) or results[-1]
    try:
        if len(datagrams) == 1:
            problems = check_unprotect(endpoint, ring, datagrams[0], source, secret)
        else:
            problems = check_batch(endpoint, ring, datagrams, source, secret)
    finally:
        endpoint.__dict__.pop("unprotect_batch", None)
    return (results[0] if results else None), problems


def check_spec(world, datagrams, source, secret, result):
    """Each datagram's body or reason is ``spec_receive``'s, in order
    (the specification's replay memory is ``world.seen``).  Garbage
    secret bodies that reach the decrypt lanes are judged by the
    reference DES, not by the scalar kernel."""
    problems = []
    for i, wire in enumerate(datagrams):
        expected = spec_receive(
            world.spec, source.wire_id, world.bob.principal.wire_id,
            wire, world.clock.now, secret, world.seen,
        )  # fmt: skip
        got = (result.bodies[i], result.reasons[i])
        if got != expected:
            problems.append(f"[{i}] {wire.hex()}: {got!r}, the specification {expected!r}")
    return problems


def check_protect(endpoint, bodies, destination, secret):
    """``(wires, violations)``: ``protect``/``protect_batch`` either
    protect every body or refuse with an FBSError (``wires`` None)."""
    try:
        if len(bodies) == 1:
            return [endpoint.protect(bodies[0], destination, secret=secret)], []
        return endpoint.protect_batch(bodies, destination, secret=secret), []
    except FBSError:
        return None, []
    except Exception as exc:
        return None, [f"protect to {destination} raised {named(exc)}"]


def run_endpoint(world, batches, secret):
    """Send, mutate and receive every batch; the violations seen.  A
    batch of one goes through ``unprotect``, a larger one through
    ``unprotect_batch``; ``enrolled`` picks alice or mallory as the
    claimed source, ``again`` delivers the whole batch a second time."""
    problems = []
    for enrolled, batch, again in batches:
        bodies = [recipe[1] for recipe in batch if recipe[0] != "garbage"]
        # A destination with no certificate is refused with an FBSError.
        problems += check_protect(world.alice, bodies or [b""], world.mallory, secret)[1]
        wires, more = check_protect(world.alice, bodies, world.bob.principal, secret)
        problems += more
        if wires is None:
            problems.append("protect refused an enrolled destination")
            continue
        datagrams = assemble(batch, wires, world.pool, world.fields)
        source = world.alice.principal if enrolled else world.mallory
        for _ in range(1 + again):
            result, more = received(world.bob, world.ring, datagrams, source, secret)
            problems += more
            if world.spec is not None and result is not None:
                problems += check_spec(world, datagrams, source, secret, result)
    return problems


batches = st.lists(
    st.tuples(st.booleans(), st.lists(recipes, min_size=1, max_size=8), st.booleans()),
    min_size=1,
    max_size=3,
)


@pytest.mark.parametrize("guard", [False, True], ids=["guard-off", "guard-on"])
@pytest.mark.parametrize("suite", sorted(SUITES))
@given(batches=batches, secret=st.booleans())
@settings(max_examples=15, deadline=None)
def test_endpoint_keeps_the_receive_contract(suite, guard, batches, secret):
    world = endpoint_world(suite, guard)
    assert run_endpoint(world, batches, secret) == []


def test_every_rejection_reason_is_observed():
    world = endpoint_world()
    a, b = world.alice, world.bob
    wires = a.protect_batch([b"first", b"second"], b.principal)
    flipped = wires[1][:-1] + bytes([wires[1][-1] ^ 1])
    stream = [b"\x00" * 5, world.pool[0], wires[0], flipped, wires[0]]
    before = receive_counts(b)
    world.ring.clear()
    result = b.unprotect_batch(stream, a.principal)
    assert accounting(b, world.ring, before, len(stream), result) == []
    assert result.reasons == ["header", "stale_timestamp", None, "mac", "duplicate"]
    stranger = a.protect(b"who am i", b.principal)
    assert check_unprotect(b, world.ring, stranger, world.mallory, False) == []
    assert [e.reason for e in world.ring.of_type(DatagramRejected)] == ["keying"]


# -- the gateway: FBSGateway.serve_once over netsim ---------------------------

ENROLLED_TENANTS = 2


def gateway_world():
    """Two enrolled tenants and a third whose address resolves to a
    principal nobody enrolled, behind a two-tenant table with shallow
    queues (so evictions and backpressure drops happen too)."""
    ring = RingBufferSink()
    site = gateway_site(
        tenants=ENROLLED_TENANTS + 1,
        config=FBSConfig(replay_guard_size=64),
        gw_config=GatewayConfig(max_tenants=2, queue_depth=3),
        tracer=ring,
    )
    enrolled = site.gateway.resolver

    def resolver(addr):
        if addr[1] - TENANT_PORT_BASE < ENROLLED_TENANTS:
            return enrolled(addr)
        return Principal.from_name("stranger")

    site.gateway.resolver = resolver
    stale = site.endpoints[0].protect(b"ten minutes ago", site.gw_principal)
    site.net.sim.run(until=600.0)
    return SimpleNamespace(site=site, ring=ring, pool=[stale], fields=fbs_fields(16))


def check_serve(world, tenant, data):
    """One datagram from ``tenant`` through ``serve_once``: one outcome
    of the closed set, counted where the endpoint saw it."""
    site, endpoint = world.site, world.site.gw_endpoint
    before = receive_counts(endpoint)
    world.ring.clear()
    site.transports[tenant].send_sync(data)
    try:
        outcome = serve_one(site)
    except Exception as exc:
        return [f"serve_once raised {named(exc)}"]
    if outcome not in GATEWAY_OUTCOMES:
        return [f"serve_once returned {outcome!r}"]
    received, accepted, rejected = receive_counts(endpoint)
    reason = outcome.partition(":")[2] if outcome.startswith("rejected:") else None
    d_rejected = {r: rejected[r] - before[2][r] for r in REJECTION_REASONS}
    problems = []
    if received - before[0] != (outcome == "enqueued" or reason is not None):
        problems.append(f"{outcome}: datagrams_received grew by {received - before[0]}")
    if accepted - before[1] != (outcome == "enqueued"):
        problems.append(f"{outcome}: datagrams_accepted grew by {accepted - before[1]}")
    if d_rejected != {r: int(r == reason) for r in REJECTION_REASONS}:
        problems.append(f"{outcome}: datagrams_rejected grew by {d_rejected}")
    events = [e.reason for e in world.ring.of_type(DatagramRejected)]
    if events != ([reason] if reason else []):
        problems.append(f"{outcome}: DatagramRejected events {events}")
    return problems + site.gateway.admission.check_registry()


@given(
    arrivals=st.lists(
        st.tuples(st.integers(min_value=0, max_value=ENROLLED_TENANTS), recipes),
        min_size=1,
        max_size=10,
    ),
)
@settings(max_examples=10, deadline=None)
def test_gateway_keeps_the_receive_contract(arrivals):
    world = gateway_world()
    site = world.site
    problems = []
    for tenant, recipe in arrivals:
        wires = [] if recipe[0] == "garbage" else [
            site.endpoints[tenant].protect(recipe[1], site.gw_principal)
        ]
        (data,) = assemble([recipe], wires, world.pool, world.fields)
        problems += check_serve(world, tenant, data)
    assert problems == []


# -- the baselines: every SCHEMES module on a netsim segment -----------------


def scheme_world(name):
    """Scheme ``name`` on hosts a and b (b's receive hook is checked); a
    third host, never enrolled anywhere, injects raw datagrams."""
    net = Network(seed=1)
    net.add_segment("lan", "10.0.0.0")
    a, b, stranger = (net.add_host(h, segment="lan") for h in ("a", "b", "stranger"))
    frames = []
    net.segment("lan").attach_tap(frames.append)
    _, module = install_scheme(name, (a, b), seed=100)
    UdpSocket(b, 6000)
    if isinstance(module, SealedDatagramModule):
        header = module.body_offset
    elif hasattr(module, "endpoint"):
        header = module.endpoint.header_size
    else:
        header = 8  # no security header: the UDP header
    world = SimpleNamespace(
        name=name,
        net=net,
        a=a,
        b=b,
        stranger=stranger,
        module=module,
        frames=frames,
        sender=UdpSocket(a, 3000),
        fields=[(0, header)],
    )
    world.pool = [sealed_payload(world, b"the first datagram")]
    return world


def sealed_payload(world, body):
    """What scheme ``world.name`` puts on the wire for ``body`` from a."""
    world.sender.sendto(body, world.b.address, 6000)
    world.net.sim.run()
    packets = (IPv4Packet.decode(frame) for frame in reversed(world.frames))
    return next(p.payload for p in packets if p.header.src == world.a.address)


def hook_count(module):
    """Datagrams the module's receive hook accepted or refused (None: it
    keeps no count)."""
    if not hasattr(module, "inbound_rejected"):
        return None
    return module.inbound_accepted + module.inbound_rejected


def check_inject(world, src, payload):
    """One raw datagram claiming ``src`` reaches b: no exception out of
    the simulator, and the hook counts it unless it is bypassed."""
    packet = IPv4Packet(
        header=IPv4Header(src=src, dst=world.b.address, proto=IPProtocol.UDP),
        payload=payload,
    )
    expected = 0 if is_bypass(packet) else 1
    before = hook_count(world.module)
    world.stranger.send_raw(packet)
    try:
        world.net.sim.run()
    except Exception as exc:
        return [f"{world.name}: Simulator.run() raised {named(exc)} (src {src})"]
    if before is not None and hook_count(world.module) - before != expected:
        return [
            f"{world.name}: hook counted {hook_count(world.module) - before} "
            f"of 1 datagram (src {src}, bypass {not expected})"
        ]
    return []


def run_scheme(world, arrivals):
    problems = []
    for from_stranger, recipe in arrivals:
        wires = [] if recipe[0] == "garbage" else [sealed_payload(world, recipe[1])]
        (payload,) = assemble([recipe], wires, world.pool, world.fields)
        src = world.stranger.address if from_stranger else world.a.address
        problems += check_inject(world, src, payload)
    return problems


@pytest.mark.parametrize("name", sorted(SCHEMES))
@given(
    arrivals=st.lists(st.tuples(st.booleans(), recipes), min_size=1, max_size=6)
)
@settings(max_examples=6, deadline=None)
def test_scheme_keeps_the_receive_contract(name, arrivals):
    assert run_scheme(scheme_world(name), arrivals) == []


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_a_strangers_datagram_is_a_counted_refusal(name):
    # A sender with no certificate replays a real datagram, and sends a
    # garbled one: the pair-keyed schemes cannot key either, which is a
    # refusal like any other -- not an exception out of the simulator.
    world = scheme_world(name)
    real = sealed_payload(world, b"x" * 40)
    src = world.stranger.address
    assert check_inject(world, src, real) + check_inject(world, src, real[::-1]) == []


# -- planted defects: the checks report them ----------------------------------


def test_planted_uncounted_rejection_is_reported(monkeypatch):
    def records_without_counting(self, result, i, reason, error):
        result.bodies[i] = None
        result.reasons[i] = reason
        result.errors[i] = error
        self.tracer.emit(DatagramRejected(reason=reason, sfl=-1))

    monkeypatch.setattr(FBSEndpoint, "_rejected", records_without_counting)
    world = endpoint_world()
    problems = check_batch(
        world.bob, world.ring, [b"", world.pool[0]], world.alice.principal, False
    )
    assert any("does not cover" in p for p in problems), problems
    assert any("DatagramRejected events" in p for p in problems), problems


def test_planted_struct_error_from_the_header_decoder_is_reported(monkeypatch):
    decode = FBSHeader.decode

    def unguarded(cls, data, suite, carry_algorithm_id=False):
        struct.unpack_from(">QI", data)  # the length check forgotten
        return decode(data, suite, carry_algorithm_id)

    monkeypatch.setattr(FBSHeader, "decode", classmethod(unguarded))
    world = endpoint_world()
    bob, ring, alice = world.bob, world.ring, world.alice.principal
    problems = check_batch(bob, ring, [b"\x00" * 5, b""], alice, False)
    assert [p.split(":")[0] for p in problems] == ["unprotect_batch raised struct.error"]
    problems = check_unprotect(bob, ring, b"\x00" * 5, alice, False)
    assert [p.split(":")[0] for p in problems] == ["unprotect raised struct.error"]


def _open_without_refusal(self, packet):
    """``SealedDatagramModule._open`` before a keying error counted as a
    refusal: ``receive_keys`` raising for an unenrolled sender escapes."""
    data = packet.payload
    if len(data) < self.body_offset:
        return None
    prefix, iv, mac, body = self.split(data)
    keys = self.receive_keys(packet, prefix)
    if keys is None:
        return None
    cipher_key, mac_key = keys
    if self.include_mac and not constant_time_equal(keyed_md5(mac_key, iv + body), mac):
        return None
    try:
        return decrypt_cbc(DES(cipher_key), iv, body)
    except ValueError:
        return None


def test_planted_baseline_open_without_refusal_is_reported(monkeypatch):
    monkeypatch.setattr(SealedDatagramModule, "_open", _open_without_refusal)
    world = scheme_world("host-pair")
    real = sealed_payload(world, b"x" * 40)
    problems = check_inject(world, world.stranger.address, real)
    assert [p.split(":")[:2] for p in problems] == [
        ["host-pair", " Simulator.run() raised repro.core.errors.UnknownPrincipalError"]
    ]
