"""Property tests for the fault model's security edge.

The claim under test: no amount of in-network damage -- bit flips,
fragment mangling, truncation, splicing -- can produce a payload that
FBSReceive accepts but the sender never sent.  The MAC is the only
thing standing between a noisy (or hostile) wire and the application,
so these properties drive randomized damage straight at ``unprotect``
and at the fragmentation/reassembly layer beneath it.

The resilience campaign is judged the same way: every full-matrix
scenario runs at a drawn campaign seed with the receiver's FBS input
recorded -- each datagram with the receiver's local clock, and each
receiver flush -- and the record is replayed through ``spec_receive``,
whose replay memory a flush clears.  Every outcome must be the
specification's: the same body, or a rejection for the same reason.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deploy import FBSDomain
from repro.core.errors import FBSError
from repro.core.keying import Principal
from repro.netsim.fragmentation import Reassembler, fragment
from repro.netsim.ipv4 import IPProtocol, IPv4Header, IPv4Packet
from repro.netsim.addresses import IPAddress
from repro.resilience import ScenarioHarness, build_matrix
from tests.spec.fbs_spec import Domain, spec_receive

#: The full matrix, by name.
MATRIX = {scenario.name: scenario for scenario in build_matrix()}


def recorded(scenario, seed):
    """Run ``scenario`` at ``seed`` with the receiver's FBS input recorded.

    Returns ``(harness, record)``: one ``(wire, source, secret, now, body,
    reason)`` entry per datagram in arrival order, ``now`` read off the
    receiver's clock, and ``None`` where the receiver flushed."""
    harness = ScenarioHarness(scenario, seed)
    endpoint = harness.receiver_binding.endpoint
    receive, flush = endpoint.unprotect_batch, endpoint.flush_all_caches
    record = []

    def unprotect_batch(datagrams, source, secret=False, stamps=None):
        now = endpoint.now()
        result = receive(datagrams, source, secret, stamps)
        record.extend(
            (wire, source.wire_id, secret, now, body, reason)
            for wire, body, reason in zip(datagrams, result.bodies, result.reasons)
        )
        return result

    def flush_all_caches():
        record.append(None)
        flush()

    endpoint.unprotect_batch = unprotect_batch
    endpoint.flush_all_caches = flush_all_caches
    harness.run()
    return harness, record


def mismatches(scenario, seed):
    """``(index, now, outcome, specification's outcome)`` of each recorded
    datagram whose ``(body, reason)`` differs from ``spec_receive``'s."""
    harness, record = recorded(scenario, seed)
    sender = harness.sender_binding.endpoint.principal
    receiver = harness.receiver_binding.endpoint.principal
    spec = Domain.enrolled(harness.domain, sender, receiver)
    seen, found = [], []
    for index, entry in enumerate(record):
        if entry is None:
            seen.clear()
            continue
        wire, source, secret, now, body, reason = entry
        expected = spec_receive(spec, source, receiver.wire_id, wire, now, secret, seen)
        if (body, reason) != expected:
            found.append((index, now, (body, reason), expected))
    return found


@pytest.mark.parametrize("name", list(MATRIX))
@settings(max_examples=2 * settings.default.max_examples // 100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_every_scenario_outcome_is_the_specifications(name, seed):
    assert mismatches(MATRIX[name], seed) == []


@pytest.fixture(scope="module")
def endpoints():
    domain = FBSDomain(seed=400)
    alice = domain.make_endpoint(Principal.from_name("alice"))
    bob = domain.make_endpoint(Principal.from_name("bob"))
    return alice, bob


@settings(max_examples=60, deadline=None)
@given(
    payload=st.binary(min_size=1, max_size=300),
    bit=st.integers(min_value=0),
    secret=st.booleans(),
)
def test_single_bit_flip_never_accepted(endpoints, payload, bit, secret):
    alice, bob = endpoints
    wire = alice.protect(payload, bob.principal, secret=secret)
    damaged = bytearray(wire)
    position = bit % (len(wire) * 8)
    damaged[position >> 3] ^= 1 << (position & 7)
    try:
        recovered = bob.unprotect(bytes(damaged), alice.principal, secret=secret)
    except FBSError:
        return  # rejected: the only acceptable outcome for damage
    # Exceedingly unlikely escape hatch: if the flip landed in the body
    # of a non-secret datagram... even then the MAC must have caught it,
    # so reaching here at all is a violation.
    raise AssertionError(
        f"damaged datagram accepted: flip at bit {position} yielded "
        f"{recovered!r} from {payload!r}"
    )


@settings(max_examples=40, deadline=None)
@given(
    payload=st.binary(min_size=1, max_size=300),
    cut=st.integers(min_value=1, max_value=299),
)
def test_truncation_never_accepted(endpoints, payload, cut):
    alice, bob = endpoints
    wire = alice.protect(payload, bob.principal)
    truncated = wire[: max(1, len(wire) - cut)]
    if truncated == wire:
        return
    with pytest.raises(FBSError):
        bob.unprotect(truncated, alice.principal)


@settings(max_examples=30, deadline=None)
@given(
    size=st.integers(min_value=600, max_value=4000),
    mtu=st.sampled_from([576, 1006, 1500]),
    drop=st.data(),
)
def test_reassembly_under_damage_never_yields_accepted_corruption(
    endpoints, size, mtu, drop
):
    """Fragment a protected datagram, then lose/duplicate/bit-flip
    fragments arbitrarily: reassembly either completes byte-exact (and
    FBS accepts) or whatever comes out is rejected by the MAC."""
    alice, bob = endpoints
    payload = bytes(i & 0xFF for i in range(size))
    wire = alice.protect(payload, bob.principal)
    packet = IPv4Packet(
        header=IPv4Header(
            src=IPAddress("10.0.0.1"),
            dst=IPAddress("10.0.0.2"),
            proto=IPProtocol.UDP,
            identification=77,
        ),
        payload=wire,
    )
    pieces = fragment(packet, mtu)
    mangled = []
    for piece in pieces:
        fate = drop.draw(
            st.sampled_from(["keep", "drop", "dup", "flip"]), label="fate"
        )
        if fate == "drop":
            continue
        if fate == "dup":
            mangled.extend([piece, piece])
            continue
        if fate == "flip":
            body = bytearray(piece.payload)
            if body:
                bit = drop.draw(
                    st.integers(min_value=0, max_value=len(body) * 8 - 1),
                    label="bit",
                )
                body[bit >> 3] ^= 1 << (bit & 7)
            piece = IPv4Packet(header=piece.header, payload=bytes(body))
        mangled.append(piece)
    order = drop.draw(st.permutations(range(len(mangled))), label="order")

    reasm = Reassembler(now=lambda: 0.0)
    whole = None
    for index in order:
        result = reasm.push(mangled[index])
        if result is not None:
            whole = result
    if whole is None:
        return  # incomplete: a lost datagram, never a wrong one
    try:
        recovered = bob.unprotect(whole.payload, alice.principal)
    except FBSError:
        return  # damaged reassembly rejected by the MAC
    if recovered != payload:
        raise AssertionError(
            "reassembled-and-accepted payload differs from what was sent"
        )
