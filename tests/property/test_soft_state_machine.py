"""The caches are soft state (Section 5.3), checked against the paper.

One hypothesis ``RuleBasedStateMachine`` over an alice -> bob endpoint
pair whose world is drawn per run: flow-key caches of 1..64 entries at
every associativity that divides them, MKC and PVC of 1..32, the replay
guard off or small, the lane kernels on or off.  Its rules send batches
of 1, 2 or at least ``CBC_ENCRYPT_MIN_LANES`` bodies (0..1.5 KB, so
every lane crossover is crossed), deliver any subset of what was sent in
any order and cut -- duplicated, reordered, a bit flipped, or claimed by
a sender nobody enrolled -- flush any cache on either side, evict a
flow, and move the clock within and past freshness and THRESHOLD.

After every step the running code must agree with the executable
specification (``tests/spec/fbs_spec.py``): each emitted wire is
``spec_send`` of its header's sfl and confounder, and each delivered
datagram's body or rejection reason is ``spec_receive``'s.  Every
receive also keeps the receive contract (``check_batch`` /
``check_unprotect``).  Derivation, build and cache counters are free to
differ: that is what "soft" means.
"""

import ast
import struct
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.keying import Principal
from repro.crypto.vector import CBC_ENCRYPT_MIN_LANES
from repro.obs import RingBufferSink
from tests.property.test_receive_contract import Clock, received
from tests.spec import fbs_spec
from tests.spec.fbs_spec import Domain, spec_receive, spec_send

#: Wires kept in flight for the deliver rule to draw from.
FLIGHT = 24


@st.composite
def configs(draw):
    def flow_cache():
        size = draw(st.integers(1, 64))
        return size, draw(st.sampled_from([w for w in range(1, size + 1) if size % w == 0]))

    (tfkc, tfkc_ways), (rfkc, rfkc_ways) = flow_cache(), flow_cache()
    return FBSConfig(
        tfkc_size=tfkc, tfkc_ways=tfkc_ways, rfkc_size=rfkc, rfkc_ways=rfkc_ways,
        mkc_size=draw(st.integers(1, 32)), pvc_size=draw(st.integers(1, 32)),
        replay_guard_size=draw(st.sampled_from([0, 1, 4])),
        vectorize=draw(st.booleans()),
    )  # fmt: skip


#: Mostly a few blocks, one body in eight long enough for the
#: single-lane decrypt route (15 blocks) or a full Ethernet payload.
sizes = st.integers(0, 7).flatmap(
    lambda i: st.integers(100, 1500) if i == 0 else st.integers(0, 24)
)
bodies = st.tuples(sizes, st.integers(0, 255)).map(
    lambda t: bytes((t[1] + 7 * j) % 256 for j in range(t[0]))
)
batches = st.sampled_from([1, 2, CBC_ENCRYPT_MIN_LANES, CBC_ENCRYPT_MIN_LANES + 2]).flatmap(
    lambda n: st.lists(bodies, min_size=n, max_size=n)
)


class SoftState(RuleBasedStateMachine):
    @initialize(config=configs())
    def enrol(self, config):
        self.clock = Clock()
        domain = FBSDomain(seed=31, config=config)
        self.alice = domain.make_endpoint(Principal.from_name("alice"), now=self.clock)
        self.ring = RingBufferSink()
        self.bob = domain.make_endpoint(
            Principal.from_name("bob"), now=self.clock, tracer=self.ring
        )
        self.eve = Principal.from_name("eve")  # never enrolled
        self.spec = Domain.enrolled(domain, self.alice.principal, self.bob.principal)
        self.flight = []  # (wire, secret) as sent
        self.seen = []  # the specification's replay memory

    @rule(bodies=batches, secret=st.booleans(), one_call=st.booleans())
    def send(self, bodies, secret, one_call):
        alice, bob = self.alice, self.bob.principal
        if one_call and len(bodies) == 1:
            wires = [alice.protect(bodies[0], bob, secret=secret)]
        else:
            wires = alice.protect_batch(bodies, bob, secret=secret)
        for body, wire in zip(bodies, wires):
            sfl, confounder = struct.unpack_from(">QI", wire)
            assert wire == spec_send(
                self.spec, alice.principal.wire_id, bob.wire_id, body,
                sfl, confounder, self.clock.now, secret,
            )  # fmt: skip
        self.flight = (self.flight + [(w, secret) for w in wires])[-FLIGHT:]

    @precondition(lambda self: self.flight)
    @rule(
        picks=st.lists(
            st.tuples(st.integers(0, FLIGHT - 1), st.integers(-36_000, 12_000)),
            min_size=1,
            max_size=16,
        ),
        cuts=st.lists(st.integers(1, 16), max_size=4),
        stranger=st.integers(0, 7),
    )
    def deliver(self, picks, cuts, stranger):
        """Any subset in any order, repeats included, one pick in four
        with a bit flipped, cut into batches; the first pick's secrecy
        is the receiver's."""
        datagrams = []
        for index, bit in picks:
            wire, _ = self.flight[index % len(self.flight)]
            if bit >= 0:
                at, bit = divmod(bit % (8 * len(wire)), 8)
                wire = wire[:at] + bytes([wire[at] ^ 1 << bit]) + wire[at + 1 :]
            datagrams.append(wire)
        secret = self.flight[picks[0][0] % len(self.flight)][1]
        source = self.eve if stranger == 0 else self.alice.principal
        for cut in cuts + [len(datagrams)]:
            batch, datagrams = datagrams[:cut], datagrams[cut:]
            if not batch:
                break
            result, problems = received(self.bob, self.ring, batch, source, secret)
            assert problems == []
            expected = [
                spec_receive(
                    self.spec, source.wire_id, self.bob.principal.wire_id,
                    wire, self.clock.now, secret, self.seen,
                )  # fmt: skip
                for wire in batch
            ]
            assert list(zip(result.bodies, result.reasons)) == expected

    @rule(
        receiver=st.booleans(),
        what=st.sampled_from(["tfkc", "rfkc", "mkc", "pvc", "fam", "guard", "all"]),
    )
    def flush(self, receiver, what):
        endpoint = self.bob if receiver else self.alice
        if what == "all":
            endpoint.flush_all_caches()
        elif what == "guard":
            if endpoint.replay_guard is not None:
                endpoint.replay_guard.flush()
        else:
            getattr(endpoint.mkd if what in ("mkc", "pvc") else endpoint, what).flush()
        if receiver and what in ("all", "guard"):
            self.seen.clear()

    @precondition(lambda self: self.flight)
    @rule(index=st.integers(0, FLIGHT - 1), receiver=st.booleans())
    def evict_flow(self, index, receiver):
        (sfl,) = struct.unpack_from(">Q", self.flight[index % len(self.flight)][0])
        cache = self.bob.rfkc if receiver else self.alice.tfkc
        cache.evict_flow(sfl, self.bob.principal.wire_id, self.alice.principal.wire_id)

    @rule(
        step=st.floats(0, 1)
        | st.sampled_from([0.0, 7.0, 59.5, 121.0, 301.0, 601.0])
        | st.floats(0, 700)
    )
    def tick(self, step):
        """Within a minute, past the freshness half window, past THRESHOLD."""
        self.clock.now += step


# Tier-1 takes the default profile's share; ``--hypothesis-profile=nightly``
# (tests/conftest.py) multiplies it by ten.
SoftState.TestCase.settings = settings(
    max_examples=15 * settings.default.max_examples // 100,
    stateful_step_count=25,
    deadline=None,
)
TestSoftStateAgainstTheSpecification = SoftState.TestCase


def test_the_specification_imports_only_the_reference_des_of_repro():
    tree = ast.parse(Path(fbs_spec.__file__).read_text())
    imported = {
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert {name for name in imported if name.split(".")[0] == "repro"} == {
        "repro.crypto.des_reference"
    }
