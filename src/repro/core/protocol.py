"""The abstract FBS protocol engine: FBSSend and FBSReceive (Figure 4).

:class:`FBSEndpoint` is deliberately layer-agnostic: it consumes and
produces byte strings ("the datagram body prefixed by the security flow
header") and "assumes only the availability of an underlying (insecure)
datagram transport".  The IP mapping (:mod:`repro.core.ip_mapping`)
splices these bytes between the IP header and the transport payload; the
in-memory transport used by the tests just sends them as-is; an
application-layer mapping could put them inside UDP payloads.

Caching follows Figure 6: the send path consults the TFKC, falling back
to the MKC/MKD (upcall) and deriving K_f once per flow; the receive path
mirrors it with the RFKC, but installs a derived K_f only once a datagram
of its flow has passed R7-R9 and is delivered, so bytes that fail the
MAC write no flow-key cache (EXPERIMENTS.md "Known deviations").  All
caches are soft state: any of them may be flushed at any moment with no
correctness impact (tests assert this).

A note on Figure 4's receive pseudo-code: it computes the MAC check (R7)
*before* decryption (R10), yet the send side MACs the plaintext body
(S6) *before* encrypting (S8).  Taken literally the two sides disagree
whenever ``secret`` is set.  Since the paper describes receive
processing as "the 'inverse' of that on the send side", we implement the
inverse order -- decrypt, then verify the plaintext MAC -- and document
the discrepancy here and in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.caches import FlowKeyCache
from repro.core.config import FBSConfig, MacAlgorithm
from repro.core.errors import (
    FBSError,
    HeaderFormatError,
    MacMismatchError,
    ReceiveError,
    StaleTimestampError,
)
from repro.core.fam import DatagramAttributes, FlowAssociationMechanism
from repro.core.header import FBSHeader, header_length
from repro.core.keying import FlowCryptoState, KeyDerivation, Principal, mac_lanes
from repro.core.mkd import MasterKeyDaemon
from repro.core.timestamps import FreshnessWindow, TimestampCodec
from repro.crypto import modes
from repro.crypto import vector as _vector
from repro.crypto.mac import constant_time_equal
from repro.crypto.random import LinearCongruential
from repro.crypto.secret import Secret
from repro.obs.events import (
    REJECTION_REASONS,
    DatagramAccepted,
    DatagramProtected,
    DatagramRejected,
    KeyDerived,
    SoftStateFlushed,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import Sink
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["FBSEndpoint", "FBSError", "ReceiveError", "BatchReceiveResult"]


def _lanes(kernel: Callable, *args, **kwargs):
    """Run one :mod:`repro.crypto.vector` lane kernel for a batch.

    The kernels guard their own arguments with ``ValueError``; the
    protocol surface raises :class:`FBSError` subclasses only.
    """
    try:
        return kernel(*args, **kwargs)
    except ValueError as exc:
        raise FBSError(f"{kernel.__name__}: {exc}") from exc


@dataclass
class BatchReceiveResult:
    """Outcome of :meth:`FBSEndpoint.unprotect_batch`.

    ``bodies[i]`` is the delivered plaintext of datagram ``i``, or
    ``None`` when it was rejected; ``reasons[i]`` is then the rejection
    reason (one of :data:`~repro.obs.events.REJECTION_REASONS`) and
    ``errors[i]`` the typed error :meth:`FBSEndpoint.unprotect` raises
    for it, both ``None`` for accepted datagrams -- per-datagram
    accounting survives batching exactly.  ``headers[i]`` is the parsed
    security flow header (``None`` only under reason ``"header"``), so
    callers need not decode a second time to learn the sfl.
    """

    bodies: List[Optional[bytes]] = field(default_factory=list)
    reasons: List[Optional[str]] = field(default_factory=list)
    headers: List[Optional[FBSHeader]] = field(default_factory=list)
    errors: List[Optional[FBSError]] = field(default_factory=list)

    @property
    def accepted(self) -> int:
        """Datagrams delivered."""
        return sum(1 for body in self.bodies if body is not None)

    @property
    def rejected(self) -> Dict[str, int]:
        """Rejection counts by reason (mutually exclusive)."""
        out: Dict[str, int] = {}
        for reason in self.reasons:
            if reason is not None:
                out[reason] = out.get(reason, 0) + 1
        return out


class FBSEndpoint:
    """One principal's FBS protocol instance (both send and receive).

    Parameters
    ----------
    principal:
        The local principal S (also D for inbound datagrams).
    mkd:
        The principal's master key daemon (keys, PVC, MKC).
    fam:
        The flow association mechanism with its policy plug-ins.
    config:
        Algorithm suite and protocol parameters.
    now:
        Clock function (simulation or wall time).
    charge:
        Optional CPU-cost hook, called with seconds for keying work.
    flow_key_cost:
        CPU seconds per flow-key derivation (charged through ``charge``).
    tracer:
        Event destination: a :class:`~repro.obs.tracer.Tracer`, a bare
        :class:`~repro.obs.sinks.Sink` (wrapped with this endpoint's
        clock), or None for the zero-cost :data:`NULL_TRACER`.
    registry:
        Metrics registry; a private one is created when not given.
        Share a registry only across components whose metric names
        cannot collide -- two endpoints on one registry would fight
        over the cache gauges.
    """

    def __init__(
        self,
        principal: Principal,
        mkd: MasterKeyDaemon,
        fam: FlowAssociationMechanism,
        config: Optional[FBSConfig] = None,
        now: Callable[[], float] = lambda: 0.0,
        confounder_seed: int = 1,
        charge: Optional[Callable[[float], None]] = None,
        flow_key_cost: float = 0.0,
        tracer: Optional[object] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.principal = principal
        self.mkd = mkd
        self.fam = fam
        self.config = config or FBSConfig()
        self.now = now
        if tracer is None:
            self.tracer = NULL_TRACER
        elif isinstance(tracer, Tracer):
            self.tracer = tracer
        elif isinstance(tracer, Sink):
            self.tracer = Tracer(tracer, now=now)
        else:
            raise TypeError(f"tracer must be a Tracer or Sink, got {tracer!r}")
        self.registry = registry or MetricsRegistry()
        self.kdf = KeyDerivation(self.config.suite)
        self.tfkc = FlowKeyCache(
            self.config.tfkc_size,
            name="TFKC",
            ways=self.config.tfkc_ways,
            tracer=self.tracer,
        )
        self.rfkc = FlowKeyCache(
            self.config.rfkc_size,
            name="RFKC",
            ways=self.config.rfkc_ways,
            tracer=self.tracer,
        )
        self.mkd.mkc.set_tracer(self.tracer)
        self.mkd.pvc.set_tracer(self.tracer)
        self.fam.tracer = self.tracer
        self.codec = TimestampCodec()
        self.freshness = FreshnessWindow(
            codec=self.codec, half_window=self.config.freshness_half_window
        )
        self._confounder_rng = LinearCongruential(confounder_seed)
        self._charge = charge or (lambda _cost: None)
        self._flow_key_cost = flow_key_cost
        # Bound instruments: the datapath pays one attribute read plus
        # one integer add per count, never a registry lookup.
        reg = self.registry
        self._c_sent = reg.counter("datagrams_sent")
        self._c_bytes_out = reg.counter("bytes_protected")
        self._c_flows = reg.counter("flows_started")
        self._c_encryptions = reg.counter("encryptions")
        self._c_decryptions = reg.counter("decryptions")
        self._c_builds = reg.counter("crypto_state_builds")
        self._c_kd_send = reg.counter("flow_key_derivations", side="send")
        self._c_kd_recv = reg.counter("flow_key_derivations", side="receive")
        self._c_received = reg.counter("datagrams_received")
        self._c_accepted = reg.counter("datagrams_accepted")
        self._c_bytes_in = reg.counter("bytes_accepted")
        self._c_rejected_by_reason = {
            reason: reg.counter("datagrams_rejected", reason=reason)
            for reason in REJECTION_REASONS
        }
        self._c_flushes = reg.counter("soft_state_flushes")
        reg.register_collector(self._collect_soft_state)
        # Config is frozen, so the header length is a per-endpoint
        # constant: compute it once instead of once per datagram.
        self._header_len = header_length(
            self.config.suite, self.config.carry_algorithm_id
        )
        # The lane kernels apply only to the suite they implement
        # (keyed MD5 + DES-CBC, the paper's IP mapping); anything else
        # takes the scalar kernels.  Read only by the three stage
        # choosers below (_macs, _encrypt, _decrypt).
        self._vector_ok = (
            self.config.vectorize
            and self.config.suite.mac is MacAlgorithm.KEYED_MD5
            and self.config.suite.cipher_mode is modes.CipherMode.CBC
        )
        if self.config.replay_guard_size > 0:
            from repro.core.replay_guard import ReplayGuard

            self.replay_guard: Optional["ReplayGuard"] = ReplayGuard(
                self.config.replay_guard_size, self.config.freshness_half_window
            )
            self.replay_guard.tracer = self.tracer
        else:
            self.replay_guard = None

    # -- helpers ---------------------------------------------------------------

    def _collect_soft_state(self) -> None:
        """Snapshot-time collector: syncs cache counters and soft-state
        gauges from live structures, so the datapath never maintains
        them (they exist only when somebody snapshots)."""
        reg = self.registry
        for cache in (self.tfkc, self.rfkc, self.mkd.mkc, self.mkd.pvc):
            name = cache.name
            stats = cache.stats
            reg.counter("cache_hits", cache=name).value = stats.hits
            reg.counter("cache_misses", cache=name).value = stats.misses
            reg.counter("cache_evictions", cache=name).value = stats.evictions
            lookups = stats.lookups
            reg.gauge("cache_hit_ratio", cache=name).set(
                stats.hits / lookups if lookups else 0.0
            )
            reg.gauge("cache_occupancy", cache=name).set(float(len(cache)))
        reg.gauge("flow_table_occupancy").set(float(self.fam.fst.occupancy()))
        reg.gauge("active_flows").set(
            float(self.fam.active_flows(self.now(), self.config.threshold))
        )
        guard = self.replay_guard
        if guard is not None:
            reg.counter("replay_guard_fresh_evictions").value = guard.fresh_evictions
            reg.gauge("replay_guard_oldest_age_s").set(guard.oldest_age(self.now()))

    def _rejected(
        self, result: BatchReceiveResult, i: int, reason: str, error: FBSError
    ) -> None:
        """The single bookkeeping point for a dropped datagram.

        Bumps ``datagrams_rejected{reason}``, records the reason and the
        typed error at index ``i`` (dropping any body staged there) and
        emits one :class:`DatagramRejected`; every rejection path calls
        this exactly once, which is what makes the reasons mutually
        exclusive (and keeps retried paths from double-counting).
        """
        self._c_rejected_by_reason[reason].inc()
        result.bodies[i] = None
        result.reasons[i] = reason
        result.errors[i] = error
        tr = self.tracer
        if tr.enabled:
            header = result.headers[i]
            sfl = -1 if header is None else header.sfl
            tr.emit(DatagramRejected(reason=reason, sfl=sfl))

    @property
    def header_size(self) -> int:
        """Wire bytes the security flow header adds to each datagram."""
        return self._header_len

    def _build_crypto_state(self, flow_key: Secret) -> FlowCryptoState:
        self._c_builds.inc()
        return FlowCryptoState(flow_key, self.config.suite, tracer=self.tracer)

    def _flow_state(
        self, sfl: int, peer: Principal, sending: bool
    ) -> Tuple[FlowCryptoState, bool]:
        """Figure 6 for either half: the flow-key cache (TFKC when
        sending, RFKC when receiving), then MKC/MKD, then derive.
        Returns the flow's state and whether it was derived here.

        A cache hit returns the flow's precomputed
        :class:`FlowCryptoState`: zero key derivations, zero DES key
        schedules, zero hash-prefix absorptions on the fast path.  A
        derived state goes into the TFKC at once when sending; when
        receiving, the caller installs it in the RFKC only once a
        datagram of the flow has passed R7-R9 and is delivered.
        """
        if sending:
            cache, derived, side = self.tfkc, self._c_kd_send, "send"
            source, destination = self.principal, peer
        else:
            cache, derived, side = self.rfkc, self._c_kd_recv, "receive"
            source, destination = peer, self.principal
        entry = cache.lookup_entry(sfl, destination.wire_id, source.wire_id)
        if entry is not None:
            return entry.crypto, False
        master = self.mkd.upcall_master_key(peer)
        self._charge(self._flow_key_cost)
        derived.inc()
        tr = self.tracer
        if tr.enabled:
            tr.emit(KeyDerived(side=side, sfl=sfl))
        flow_key = self.kdf.flow_key(sfl, master, source, destination)
        state = self._build_crypto_state(flow_key)
        if sending:
            self.tfkc.install(sfl, destination.wire_id, source.wire_id, flow_key, crypto=state)
        return state, True

    # -- the crypto stages: one kernel choice each --------------------------------

    def _macs(
        self, states: Sequence[FlowCryptoState], inputs: Sequence[bytes]
    ) -> List[bytes]:
        """(S6, R7-8) each input's MAC under its flow: keyed-MD5 lanes
        from two datagrams on the vectorized pair, each flow's cached
        MAC otherwise."""
        if self._vector_ok and len(inputs) >= 2:
            macs = _lanes(mac_lanes, states, inputs)
            mac_bytes = self.config.suite.mac_bytes
            return macs if mac_bytes == 16 else [mac[:mac_bytes] for mac in macs]
        return list(map(FlowCryptoState.mac, states, inputs))

    def _encrypt(
        self,
        states: Sequence[FlowCryptoState],
        ivs: Sequence[bytes],
        bodies: Sequence[bytes],
    ) -> List[bytes]:
        """(S8-9) each body under its flow's cached cipher: lanes from
        ``CBC_ENCRYPT_MIN_LANES`` datagrams, the scalar loop below."""
        ciphers = [state.cipher for state in states]
        if self._vector_ok and len(bodies) >= _vector.CBC_ENCRYPT_MIN_LANES:
            return _lanes(_vector.cbc_encrypt_many, ciphers, ivs, bodies)
        mode = self.config.suite.cipher_mode
        return [modes.encrypt(mode, *lane) for lane in zip(ciphers, ivs, bodies)]

    def _decrypt(
        self,
        states: Sequence[FlowCryptoState],
        ivs: Sequence[bytes],
        bodies: Sequence[bytes],
    ) -> List[Optional[bytes]]:
        """(R10-11) each body under its flow's cached cipher.

        ``None`` marks a body that is not a whole number of blocks or
        whose padding is garbled: an integrity failure, rejected as
        ``"mac"`` by the caller.  CBC decryption has no chain
        dependency, so lanes pay from two datagrams, and one body long
        enough to pay for a kernel pass runs as a lane of its own, its
        blocks in parallel.
        """
        ciphers = [state.cipher for state in states]
        wide = len(bodies) >= 2 or len(bodies[0]) >= 8 * _vector.SINGLE_LANE_MIN_BLOCKS
        if self._vector_ok and wide:
            return _lanes(_vector.cbc_decrypt_many, ciphers, ivs, bodies)
        mode = self.config.suite.cipher_mode
        plains: List[Optional[bytes]] = []
        for lane in zip(ciphers, ivs, bodies):
            try:
                plains.append(modes.decrypt(mode, *lane))
            except ValueError:
                plains.append(None)
        return plains

    # -- FBSSend (Figure 4, left) ------------------------------------------------

    def protect(
        self,
        body: bytes,
        destination: Principal,
        attributes: Optional[DatagramAttributes] = None,
        secret: bool = False,
    ) -> bytes:
        """FBSSend for one datagram: :meth:`protect_batch` at n=1.

        Returns the security flow header followed by the (possibly
        encrypted) body; the caller splices this into its datagram
        format.
        """
        return self.protect_batch(
            (body,),
            destination,
            None if attributes is None else (attributes,),
            secret,
        )[0]

    def protect_batch(
        self,
        bodies: Sequence[bytes],
        destination: Principal,
        attributes: Optional[Sequence[DatagramAttributes]] = None,
        secret: bool = False,
        stamps: Optional[Sequence[float]] = None,
    ) -> List[bytes]:
        """FBSSend (S1-S10) over n >= 1 datagrams, in stages.

        Classification, keying and stamping walk shared soft state, so
        they run in datagram order; MAC and cipher are then one call
        each (``_macs``, ``_encrypt``), which picks the lanes across
        datagrams when the suite is the vectorized pair and the batch is
        as wide as the stage's measured crossover, the scalar kernels
        otherwise.  Wire bytes, counters and events do not
        depend on that choice, nor on how a stream is cut into batches
        (tests pin both).

        ``attributes``, when given, is parallel to ``bodies``.
        ``stamps`` optionally supplies a per-datagram simulation time
        (trace replay drives this); without it every datagram reads the
        endpoint clock.  Events are still stamped by the endpoint
        clock, so a replaying caller should advance its clock to the
        batch boundary.
        """
        n = len(bodies)
        if attributes is not None and len(attributes) != n:
            raise FBSError("attributes must be parallel to bodies")
        if stamps is not None and len(stamps) != n:
            raise FBSError("stamps must be parallel to bodies")
        if n == 0:
            # An empty batch is a no-op: no counters, no events.
            return []
        suite = self.config.suite
        carry = self.config.carry_algorithm_id
        zero_mac = b"\x00" * suite.mac_bytes
        fam_classify = self.fam.classify
        flow_state = self._flow_state
        next_u32 = self._confounder_rng.next_u32
        encode_ts = self.codec.encode
        now_fn = self.now
        dest_wire = destination.wire_id
        # (S1-5) classify, flow crypto state (logically the flow key;
        # physically the TFKC entry carrying the precomputed per-key
        # state), confounder and timestamp; then (S6)'s input,
        # confounder | timestamp | plaintext body.
        headers: List[FBSHeader] = []
        states: List[FlowCryptoState] = []
        inputs: List[bytes] = []
        flows = 0
        for i in range(n):
            body = bodies[i]
            now = stamps[i] if stamps is not None else now_fn()
            if attributes is not None:
                attrs = attributes[i]
            else:
                attrs = DatagramAttributes(
                    destination_id=dest_wire, size=len(body)
                )
            entry = fam_classify(attrs, now)
            if entry.datagrams == 1:
                flows += 1
            states.append(flow_state(entry.sfl, destination, True)[0])
            header = FBSHeader(
                sfl=entry.sfl,
                confounder=next_u32(),
                mac=zero_mac,
                timestamp=encode_ts(now),
            )
            headers.append(header)
            inputs.append(header.mac_input(body))
        # (S6) MAC.
        macs = self._macs(states, inputs)
        # (S8-9) optional encryption with the confounder-derived IV; the
        # cipher (key schedule included) is cached on the flow state.
        wire_bodies = bodies
        if secret:
            ivs = [header.iv() for header in headers]
            wire_bodies = self._encrypt(states, ivs, bodies)
        # (S7, S10) encode the headers, account, emit header + body.
        tr = self.tracer
        emit = tr.emit if tr.enabled else None
        out: List[bytes] = []
        bytes_out = 0
        for i in range(n):
            header = headers[i]
            header.mac = macs[i]
            wire_body = wire_bodies[i]
            bytes_out += len(wire_body)
            if emit is not None:
                emit(
                    DatagramProtected(
                        sfl=header.sfl, size=len(wire_body), secret=secret
                    )
                )
            out.append(header.encode(suite, carry) + wire_body)
        self._c_sent.inc(n)
        self._c_bytes_out.inc(bytes_out)
        self._c_flows.inc(flows)
        if secret:
            self._c_encryptions.inc(n)
        return out

    # -- FBSReceive (Figure 4, right) ----------------------------------------------

    def unprotect(self, data: bytes, source: Principal, secret: bool = False) -> bytes:
        """FBSReceive for one datagram: :meth:`unprotect_batch` at n=1.

        Returns the plaintext body, or raises the :class:`ReceiveError`
        subclass (the pseudo-code's ``return error`` paths) or keying
        :class:`FBSError` the pipeline recorded for it.
        """
        result = self.unprotect_batch((data,), source, secret)
        error = result.errors[0]
        if error is not None:
            raise error
        return result.bodies[0]

    def unprotect_batch(
        self,
        datagrams: Sequence[bytes],
        source: Principal,
        secret: bool = False,
        stamps: Optional[Sequence[float]] = None,
    ) -> BatchReceiveResult:
        """FBSReceive (R1-R12) over n >= 1 datagrams, in stages.

        A bad datagram does not raise: the result records ``None`` plus
        the rejection reason and typed error at that position, through
        the one ``_rejected`` bookkeeping point, so per-datagram
        rejection accounting is exact and the reasons stay mutually
        exclusive.  Header parse, freshness and keying walk shared soft
        state and run in datagram order, rejecting inline; survivors
        take one ``_decrypt`` and one ``_macs`` call (each chooses its
        kernel from the datagrams that *reach that stage*: a garbage
        datagram cannot buy a lone survivor a lane pass); the replay guard,
        delivery and accounting then run in datagram order again, so
        per-index reasons, counters, events and replay-guard memory
        order do not depend on the kernel choice.

        ``stamps`` optionally supplies per-datagram arrival times (for
        trace replay); without it every datagram reads the endpoint
        clock.
        """
        n = len(datagrams)
        if stamps is not None and len(stamps) != n:
            raise FBSError("stamps must be parallel to datagrams")
        headers: List[Optional[FBSHeader]] = [None] * n
        # Doubles as the staging buffer: wire body, then plaintext,
        # back to None the moment the datagram is rejected.
        bodies: List[Optional[bytes]] = [None] * n
        result = BatchReceiveResult(bodies, [None] * n, headers, [None] * n)
        if n == 0:
            # An empty batch is a no-op: no counters, no events.
            return result
        suite = self.config.suite
        carry = self.config.carry_algorithm_id
        decode = FBSHeader.decode
        header_len = self._header_len
        is_fresh = self.freshness.is_fresh
        flow_state = self._flow_state
        rejected = self._rejected
        now_fn = self.now
        self._c_received.inc(n)
        # (R2-6) parse the header, check freshness, recover the flow
        # crypto state: a flow derived earlier in this batch (counted as
        # the RFKC hit Figure 6 would score, so counters do not depend
        # on how a stream is cut into batches), else the RFKC, else
        # derived into ``pending`` (sfl -> state), which exists only
        # once a lookup has missed.  ``states`` is parallel to
        # ``alive``, the survivors' indices.
        pending: Optional[Dict[int, FlowCryptoState]] = None
        states: List[FlowCryptoState] = []
        nows: List[float] = [0.0] * n
        alive: List[int] = []
        for i in range(n):
            data = datagrams[i]
            now = nows[i] = stamps[i] if stamps is not None else now_fn()
            try:
                header = headers[i] = decode(data, suite, carry)
            except HeaderFormatError as exc:
                rejected(result, i, "header", exc)
                continue
            if not is_fresh(header.timestamp, now):
                rejected(
                    result,
                    i,
                    "stale_timestamp",
                    StaleTimestampError(
                        f"timestamp {header.timestamp} outside freshness "
                        f"window at {now}"
                    ),
                )
                continue
            sfl = header.sfl
            state = None if pending is None else pending.get(sfl)
            if state is not None:
                self.rfkc.count_hit()
            else:
                try:
                    state, derived = flow_state(sfl, source, False)
                except FBSError as exc:
                    rejected(result, i, "keying", exc)
                    continue
                if derived:
                    if pending is None:
                        pending = {}
                    pending[sfl] = state
            states.append(state)
            bodies[i] = data[header_len:]
            alive.append(i)
        # (R10-11 before R7-9; see the module docstring on Figure 4's
        # ordering) optional decryption with the flow's cached cipher.
        if secret and alive:
            plains = self._decrypt(
                states, [headers[i].iv() for i in alive], [bodies[i] for i in alive]
            )
            decrypted, decrypted_states = alive, states
            alive, states = [], []
            for position, i in enumerate(decrypted):
                plain = plains[position]
                if plain is None:
                    rejected(
                        result,
                        i,
                        "mac",
                        MacMismatchError(
                            "undecryptable body on datagram in flow "
                            f"{headers[i].sfl:#x}"
                        ),
                    )
                else:
                    bodies[i] = plain
                    alive.append(i)
                    states.append(decrypted_states[position])
            self._c_decryptions.inc(len(alive))
        # (R7-9) MAC verification over the plaintext.
        macs = self._macs(states, [headers[i].mac_input(bodies[i]) for i in alive])
        verified = alive
        alive = []
        for position, i in enumerate(verified):
            if constant_time_equal(macs[position], headers[i].mac):
                alive.append(i)
            else:
                rejected(
                    result,
                    i,
                    "mac",
                    MacMismatchError(
                        f"MAC mismatch on datagram in flow {headers[i].sfl:#x}"
                    ),
                )
        # Optional extension: suppress exact duplicates within the
        # freshness window (after MAC verification, so forged headers
        # cannot poison the memory).  Catching the guard's ReceiveError
        # avoids importing the concrete subclass (the guard module is
        # an optional import).  Then (R12) deliver; a flow derived in
        # this batch enters the RFKC with its first delivered datagram,
        # so a rejected datagram leaves no trace there.
        guard = self.replay_guard
        tr = self.tracer
        emit = tr.emit if tr.enabled else None
        bytes_in = 0
        accepted = 0
        for i in alive:
            header = headers[i]
            if guard is not None:
                try:
                    guard.check_and_remember(header, nows[i])
                except ReceiveError as exc:
                    rejected(result, i, "duplicate", exc)
                    continue
            if pending:
                state = pending.pop(header.sfl, None)
                if state is not None:
                    self.rfkc.install(
                        header.sfl, self.principal.wire_id, source.wire_id,
                        state.flow_key, crypto=state,
                    )
            size = len(bodies[i])
            accepted += 1
            bytes_in += size
            if emit is not None:
                emit(DatagramAccepted(sfl=header.sfl, size=size))
        self._c_accepted.inc(accepted)
        self._c_bytes_in.inc(bytes_in)
        return result

    # -- soft state management -------------------------------------------------------

    def flush_all_caches(self) -> None:
        """Drop every piece of cached state.

        "The contents of the cache represent only soft state" -- after
        this call the endpoint still interoperates perfectly, it just
        re-derives keys (tests exercise flushing between every datagram).
        """
        self.tfkc.flush()
        self.rfkc.flush()
        self.mkd.mkc.flush()
        self.mkd.pvc.flush()
        self.fam.flush()
        if self.replay_guard is not None:
            self.replay_guard.flush()
        self._c_flushes.inc()
        tr = self.tracer
        if tr.enabled:
            tr.emit(SoftStateFlushed(scope="endpoint"))
