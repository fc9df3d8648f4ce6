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

An attacker rides along with a knowledge set (``tests/spec/knowledge.py``'s
FBS row): it steals a flow key from an RFKC or TFKC entry or a pair's
master key (alice's, or carol's, who is enrolled only to be forged), forges
datagrams for any flow with the best key it holds, and splices one
datagram's body under another's header.  A forged datagram passes the MAC
iff the closure of what was stolen holds its flow key; a splice, which
uses no key, iff its bytes are a datagram alice sent.  So one ``K_f``
never opens another flow, and one ``K_{S,D}`` never another pair; and a
forge or splice that is rejected leaves bob's flow-key caches as they
were.
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
from tests.property.test_receive_contract import Clock, cached_flows, received
from tests.spec import fbs_spec
from tests.spec.fbs_spec import Domain, flow_key, seal, spec_receive, spec_send
from tests.spec.knowledge import RULES, Datagram, closure, key, opens

#: The knowledge closure's FBS row: K_{S,D} -> (sfl) -> K_f.
FBS = RULES["fbs"]

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
        self.carol = domain.make_endpoint(Principal.from_name("carol"), now=self.clock)
        self.spec = Domain.enrolled(
            domain, self.alice.principal, self.bob.principal, self.carol.principal
        )
        self.flight = []  # (wire, secret) as sent
        self.sent = set()  # every (wire, secret) alice sent
        self.seen = []  # the specification's replay memory
        self.stolen = {}  # knowledge term -> the key bytes the attacker holds

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
        self.sent.update((w, secret) for w in wires)

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

    def _receive(self, wire, source, secret):
        """One datagram through bob, judged by the specification; its
        reason.  A rejected one writes nothing into bob's TFKC or RFKC."""
        before = cached_flows(self.bob)
        result, problems = received(self.bob, self.ring, [wire], source, secret)
        assert problems == []
        expected = spec_receive(
            self.spec, source.wire_id, self.bob.principal.wire_id,
            wire, self.clock.now, secret, self.seen,
        )  # fmt: skip
        assert (result.bodies[0], result.reasons[0]) == expected
        if expected[1] is not None:
            assert cached_flows(self.bob) == before
        return expected[1]

    @precondition(lambda self: self.flight)
    @rule(index=st.integers(0, FLIGHT - 1), receiver=st.booleans())
    def leak_flow_key(self, index, receiver):
        """Read K_f of a flow in flight out of bob's RFKC or alice's TFKC."""
        (sfl,) = struct.unpack_from(">Q", self.flight[index % len(self.flight)][0])
        cache = self.bob.rfkc if receiver else self.alice.tfkc
        entry = cache.lookup_entry(sfl, self.bob.principal.wire_id, self.alice.principal.wire_id)
        if entry is not None:
            self.stolen[key(FBS, Datagram(("alice", "bob"), sfl, 0), 1)] = entry.flow_key.reveal()

    @rule(carol=st.booleans())
    def leak_master(self, carol):
        """Read K_{S,D} of alice's (or carol's) pair with bob out of bob's MKD."""
        sender = self.carol if carol else self.alice
        master = self.bob.mkd.master_key(sender.principal).reveal()
        self.stolen[key(FBS, Datagram((sender.principal.name, "bob"), 0, 0), 0)] = master

    @rule(
        index=st.integers(0, 2 * FLIGHT), fresh=st.integers(0, 2**64 - 1), carol=st.booleans(),
        body=bodies, confounder=st.integers(0, 2**32 - 1), secret=st.booleans(),
    )  # fmt: skip
    def forge(self, index, fresh, carol, body, confounder, secret):
        """A datagram for a stolen flow, a flow in flight or a fresh sfl,
        from alice or carol, sealed under the best key the attacker holds."""
        sfls = [term[1] for term in self.stolen if len(term) == 2]
        sfls += [struct.unpack_from(">Q", wire)[0] for wire, _ in self.flight]
        sfls = list(dict.fromkeys(sfls)) + [fresh]
        sfl = sfls[index % len(sfls)]
        sender = self.carol if carol else self.alice
        source, bob = sender.principal.wire_id, self.bob.principal.wire_id
        d = Datagram((sender.principal.name, "bob"), sfl, 0)
        known = closure(FBS, self.stolen, [d])
        held = self.stolen.get(key(FBS, d, 1))
        if held is None and key(FBS, d, 0) in self.stolen:
            held = flow_key(self.spec, sfl, source, bob, master=self.stolen[key(FBS, d, 0)])
        # Without it, the best guess is the last flow key stolen (any
        # other flow's), else whatever the attacker holds.
        flow_keys = [value for term, value in self.stolen.items() if len(term) == 2]
        guess = held or (flow_keys or list(self.stolen.values()) or [bytes(16)])[-1]
        wire = seal(self.spec, guess, sfl, confounder, self.clock.now, body, secret)
        reason = self._receive(wire, sender.principal, secret)
        assert (reason != "mac") == opens(FBS, known, d)

    @precondition(lambda self: len(self.flight) >= 2)
    @rule(a=st.integers(0, FLIGHT - 1), b=st.integers(0, FLIGHT - 1))
    def splice(self, a, b):
        """Flow A's body under flow B's header: no key is used."""
        (wire_a, _), (wire_b, secret) = (self.flight[i % len(self.flight)] for i in (a, b))
        size = self.bob.header_size
        wire = wire_b[:size] + wire_a[size:]
        reason = self._receive(wire, self.alice.principal, secret)
        if reason != "stale_timestamp":  # R3 rejects before any key is needed
            assert (reason != "mac") == ((wire, secret) in self.sent)

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


def test_a_stolen_flow_key_forges_no_fresh_flow():
    """The machine's own rules in the order the attacker needs them, on
    every run whatever hypothesis draws: alice sends, the K_f of her
    TFKC entry is stolen, and a datagram forged under it for an sfl no
    one used must fail bob's MAC.  A K_f derived without the sfl would
    open it (``forge`` asserts the closure's verdict)."""
    machine = SoftState()
    machine.enrol(config=FBSConfig())
    machine.send(bodies=[b"flow a"], secret=False, one_call=True)
    machine.leak_flow_key(index=0, receiver=False)
    assert machine.stolen
    (sfl,) = struct.unpack_from(">Q", machine.flight[0][0])
    # ``forge`` picks among the stolen and in-flight sfls, then ``fresh``.
    machine.forge(
        index=1, fresh=sfl ^ 1 << 63, carol=False, body=b"forged", confounder=7, secret=False
    )
    machine.teardown()


def test_the_specification_imports_only_the_reference_des_of_repro():
    """Every module under ``tests/spec`` is written from the paper: none
    imports ``repro`` (or a test that does) but the FBS oracle's DES."""
    imported = {}
    for spec in sorted(Path(fbs_spec.__file__).parent.glob("*.py")):
        tree = ast.parse(spec.read_text())
        names = {
            node.module if isinstance(node, ast.ImportFrom) else alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        outside = {n for n in names if n and n.split(".")[0] in ("repro", "tests")}
        imported[spec.name] = outside - {"tests.spec", "tests.spec.fbs_spec"}
    assert {name: mods for name, mods in imported.items() if mods} == {
        "fbs_spec.py": {"repro.crypto.des_reference"}
    }
    assert {"fbs_spec.py", "gateway_spec.py", "knowledge.py"} <= set(imported)
