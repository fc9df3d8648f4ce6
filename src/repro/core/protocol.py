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
mirrors it with the RFKC.  All caches are soft state: any of them may be
flushed at any moment with no correctness impact (tests assert this).

A note on Figure 4's receive pseudo-code: it computes the MAC check (R7)
*before* decryption (R10), yet the send side MACs the plaintext body
(S6) *before* encrypting (S8).  Taken literally the two sides disagree
whenever ``secret`` is set.  Since the paper describes receive
processing as "the 'inverse' of that on the send side", we implement the
inverse order -- decrypt, then verify the plaintext MAC -- and document
the discrepancy here and in DESIGN.md.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

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
from repro.core.keying import FlowCryptoState, KeyDerivation, Principal
from repro.core.metrics import FBSMetrics
from repro.core.mkd import MasterKeyDaemon
from repro.core.timestamps import FreshnessWindow, TimestampCodec
from repro.crypto import modes
from repro.crypto import vector as _vector
from repro.crypto.mac import constant_time_equal
from repro.crypto.random import LinearCongruential
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

#: Batch-path equivalents of :meth:`FBSHeader.mac_input` / ``iv()``:
#: the vector datapath assembles these fields before headers exist.
_CONF_TS = struct.Struct(">II")
_U32 = struct.Struct(">I")

#: Shortest secret body :meth:`FBSEndpoint.unprotect` hands to the lane
#: kernel instead of the scalar block loop.
_LANE_DECRYPT_MIN_BYTES = 8 * _vector.SINGLE_LANE_MIN_BLOCKS


@dataclass
class BatchReceiveResult:
    """Outcome of :meth:`FBSEndpoint.unprotect_batch`.

    ``bodies[i]`` is the delivered plaintext of datagram ``i``, or
    ``None`` when it was rejected; ``reasons[i]`` is then the rejection
    reason (one of :data:`~repro.obs.events.REJECTION_REASONS`) and
    ``None`` for accepted datagrams -- per-datagram accounting survives
    batching exactly.
    """

    bodies: List[Optional[bytes]] = field(default_factory=list)
    reasons: List[Optional[str]] = field(default_factory=list)

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
        self.metrics = FBSMetrics(registry=self.registry)
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
        # Batch lane kernels apply only to the suite they implement
        # (keyed MD5 + DES-CBC, the paper's IP mapping); anything else
        # takes the scalar loop, as does a numpy-less interpreter.
        self._vector_ok = (
            self.config.vectorize
            and _vector.HAVE_NUMPY
            and self.config.suite.mac is MacAlgorithm.KEYED_MD5
            and self.config.suite.cipher_mode is modes.CipherMode.CBC
        )
        if self.config.replay_guard_size > 0:
            from repro.core.replay_guard import ReplayGuard

            self.replay_guard: Optional["ReplayGuard"] = ReplayGuard(
                capacity=self.config.replay_guard_size,
                window=2 * self.config.freshness_half_window + 60.0,
                freshness_half_window=self.config.freshness_half_window,
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
            reg.counter(
                "cache_misses", cache=name, kind="cold"
            ).value = stats.cold_misses
            reg.counter(
                "cache_misses", cache=name, kind="capacity"
            ).value = stats.capacity_misses
            reg.counter(
                "cache_misses", cache=name, kind="collision"
            ).value = stats.collision_misses
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

    def _rejected(self, reason: str, sfl: int = -1) -> None:
        """The single bookkeeping point for a dropped datagram.

        Bumps ``datagrams_rejected{reason}`` and emits one
        :class:`DatagramRejected`; every rejection path calls this
        exactly once, which is what makes the reasons mutually
        exclusive (and keeps retried paths from double-counting).
        """
        self._c_rejected_by_reason[reason].inc()
        tr = self.tracer
        if tr.enabled:
            tr.emit(DatagramRejected(reason=reason, sfl=sfl))

    @property
    def header_size(self) -> int:
        """Wire bytes the security flow header adds to each datagram."""
        return self._header_len

    def _mac(self, flow_key: bytes, header: FBSHeader, body: bytes) -> bytes:
        """MAC = HMAC(K_f | confounder | timestamp | payload).

        Generic (non-cached) construction; the datapath goes through
        :meth:`~repro.core.keying.FlowCryptoState.mac`, which produces
        bit-identical output from precomputed key state.
        """
        digest = self.config.suite.mac.func(
            self.kdf.mac_key(flow_key), header.mac_input(body)
        )
        return digest[: self.config.suite.mac_bytes]

    def _build_crypto_state(self, flow_key: bytes) -> FlowCryptoState:
        self._c_builds.inc()
        return FlowCryptoState(flow_key, self.config.suite, tracer=self.tracer)

    def _decrypt(
        self, state: FlowCryptoState, header: FBSHeader, body: bytes
    ) -> Optional[bytes]:
        """(R10-11) one body through the flow's cached cipher.

        ``None`` marks a body that is not a whole number of blocks or
        whose padding is garbled: an integrity failure, rejected as
        ``"mac"`` by the caller.  CBC decryption has no chain
        dependency, so a body long enough to pay for a kernel pass runs
        as one lane of the vector kernel, its blocks in parallel.
        """
        if self._vector_ok and len(body) >= _LANE_DECRYPT_MIN_BYTES:
            return _vector.cbc_decrypt_many(
                (state.cipher,), (header.iv(),), (body,)
            )[0]
        try:
            return modes.decrypt(
                self.config.suite.cipher_mode, state.cipher, header.iv(), body
            )
        except ValueError:
            return None

    def _send_flow_state(self, sfl: int, destination: Principal) -> FlowCryptoState:
        """Figure 6: TFKC, then MKC/MKD, then derive and install.

        A cache hit returns the flow's precomputed
        :class:`FlowCryptoState`: zero key derivations, zero DES key
        schedules, zero hash-prefix absorptions on the fast path.
        """
        entry = self.tfkc.lookup_entry(
            sfl, destination.wire_id, self.principal.wire_id
        )
        if entry is not None:
            if entry.crypto is None:
                # Key installed by an out-of-band path (e.g. a test or
                # simulator using FlowKeyCache directly): derive state
                # once and pin it to the entry.
                entry.crypto = self._build_crypto_state(entry.flow_key)
            return entry.crypto
        master = self.mkd.upcall_master_key(destination)
        self._charge(self._flow_key_cost)
        self._c_kd_send.inc()
        tr = self.tracer
        if tr.enabled:
            tr.emit(KeyDerived(side="send", sfl=sfl))
        flow_key = self.kdf.flow_key(sfl, master, self.principal, destination)
        state = self._build_crypto_state(flow_key)
        self.tfkc.install(
            sfl,
            destination.wire_id,
            self.principal.wire_id,
            flow_key,
            now=self.now(),
            crypto=state,
        )
        return state

    def _receive_flow_state(self, sfl: int, source: Principal) -> FlowCryptoState:
        """The RFKC mirror of the send path."""
        entry = self.rfkc.lookup_entry(
            sfl, self.principal.wire_id, source.wire_id
        )
        if entry is not None:
            if entry.crypto is None:
                entry.crypto = self._build_crypto_state(entry.flow_key)
            return entry.crypto
        master = self.mkd.upcall_master_key(source)
        self._charge(self._flow_key_cost)
        self._c_kd_recv.inc()
        tr = self.tracer
        if tr.enabled:
            tr.emit(KeyDerived(side="receive", sfl=sfl))
        flow_key = self.kdf.flow_key(sfl, master, source, self.principal)
        state = self._build_crypto_state(flow_key)
        self.rfkc.install(
            sfl,
            self.principal.wire_id,
            source.wire_id,
            flow_key,
            now=self.now(),
            crypto=state,
        )
        return state

    def _send_flow_key(self, sfl: int, destination: Principal) -> bytes:
        """The flow key alone (compatibility shim over the state path)."""
        return self._send_flow_state(sfl, destination).flow_key

    def _receive_flow_key(self, sfl: int, source: Principal) -> bytes:
        """The flow key alone (compatibility shim over the state path)."""
        return self._receive_flow_state(sfl, source).flow_key

    # -- FBSSend (Figure 4, left) ------------------------------------------------

    def protect(
        self,
        body: bytes,
        destination: Principal,
        attributes: Optional[DatagramAttributes] = None,
        secret: bool = False,
    ) -> bytes:
        """FBSSend: classify, key, MAC, optionally encrypt.

        Returns the security flow header followed by the (possibly
        encrypted) body; the caller splices this into its datagram
        format.
        """
        now = self.now()
        if attributes is None:
            attributes = DatagramAttributes(
                destination_id=destination.wire_id, size=len(body)
            )
        # (S1) classify into a flow (the FAM emits FlowStarted).
        entry = self.fam.classify(attributes, now)
        if entry.datagrams == 1:
            self._c_flows.inc()
        sfl = entry.sfl
        # (S2-3) flow crypto state (logically the flow key; physically
        # the TFKC entry carrying the precomputed per-key state).
        state = self._send_flow_state(sfl, destination)
        # (S4-5) confounder and timestamp.
        confounder = self._confounder_rng.next_u32()
        timestamp = self.codec.encode(now)
        header = FBSHeader(
            sfl=sfl,
            confounder=confounder,
            mac=b"\x00" * self.config.suite.mac_bytes,
            timestamp=timestamp,
        )
        # (S6) MAC over confounder | timestamp | plaintext body.
        header.mac = state.mac(header.mac_input(body))
        # (S8-9) optional encryption with the confounder-derived IV; the
        # cipher (key schedule included) is cached on the flow state.
        if secret:
            body = modes.encrypt(
                self.config.suite.cipher_mode, state.cipher, header.iv(), body
            )
            self._c_encryptions.inc()
        # (S7, S10) emit header + body.
        self._c_sent.inc()
        self._c_bytes_out.inc(len(body))
        tr = self.tracer
        if tr.enabled:
            tr.emit(DatagramProtected(sfl=sfl, size=len(body), secret=secret))
        return (
            header.encode(self.config.suite, self.config.carry_algorithm_id) + body
        )

    def protect_batch(
        self,
        bodies: Sequence[bytes],
        destination: Principal,
        attributes: Optional[Sequence[DatagramAttributes]] = None,
        secret: bool = False,
        stamps: Optional[Sequence[float]] = None,
    ) -> List[bytes]:
        """FBSSend over a vector of datagrams.

        Semantically identical to calling :meth:`protect` once per body
        -- byte-identical wire output, identical counters and events
        (tests pin the equivalence) -- but the per-datagram Python
        overhead (attribute chains, counter bumps, tracer checks) is
        paid once per batch instead of once per datagram.

        ``attributes``, when given, is parallel to ``bodies``.
        ``stamps`` optionally supplies a per-datagram simulation time
        (trace replay drives this); without it every datagram reads the
        endpoint clock exactly as :meth:`protect` does.  Events are
        still stamped by the endpoint clock, so a replaying caller
        should advance its clock to the batch boundary.
        """
        n = len(bodies)
        if attributes is not None and len(attributes) != n:
            raise FBSError("attributes must be parallel to bodies")
        if stamps is not None and len(stamps) != n:
            raise FBSError("stamps must be parallel to bodies")
        if n == 0:
            # An empty batch is a no-op: no counters, no events.
            return []
        if n >= 2 and self._vector_ok:
            return self._protect_batch_vector(
                bodies, destination, attributes, secret, stamps
            )
        # Hoisted hot-path state: one load per batch, not per datagram.
        fam_classify = self.fam.classify
        send_state = self._send_flow_state
        next_u32 = self._confounder_rng.next_u32
        encode_ts = self.codec.encode
        suite = self.config.suite
        zero_mac = b"\x00" * suite.mac_bytes
        carry = self.config.carry_algorithm_id
        cipher_mode = suite.cipher_mode
        now_fn = self.now
        dest_wire = destination.wire_id
        tr = self.tracer
        emit = tr.emit if tr.enabled else None
        out: List[bytes] = []
        flows = 0
        bytes_out = 0
        encryptions = 0
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
            sfl = entry.sfl
            state = send_state(sfl, destination)
            header = FBSHeader(
                sfl=sfl,
                confounder=next_u32(),
                mac=zero_mac,
                timestamp=encode_ts(now),
            )
            header.mac = state.mac(header.mac_input(body))
            if secret:
                body = modes.encrypt(
                    cipher_mode, state.cipher, header.iv(), body
                )
                encryptions += 1
            bytes_out += len(body)
            if emit is not None:
                emit(DatagramProtected(sfl=sfl, size=len(body), secret=secret))
            out.append(header.encode(suite, carry) + body)
        self._c_sent.inc(n)
        self._c_bytes_out.inc(bytes_out)
        if flows:
            self._c_flows.inc(flows)
        if encryptions:
            self._c_encryptions.inc(encryptions)
        return out

    def _protect_batch_vector(
        self,
        bodies: Sequence[bytes],
        destination: Principal,
        attributes: Optional[Sequence[DatagramAttributes]],
        secret: bool,
        stamps: Optional[Sequence[float]],
    ) -> List[bytes]:
        """The numpy lane datapath behind :meth:`protect_batch`.

        Classification and keying stay scalar (they walk shared mutable
        soft state in datagram order -- same events, same cache
        traffic); the crypto splits into three lane-parallel passes:
        one keyed-MD5 sweep over every MAC input, one CBC sweep over
        every body, one header-stamping pass.  Output bytes, counters,
        and events match the scalar loop exactly.
        """
        n = len(bodies)
        fam_classify = self.fam.classify
        send_state = self._send_flow_state
        next_u32 = self._confounder_rng.next_u32
        encode_ts = self.codec.encode
        suite = self.config.suite
        mac_bytes = suite.mac_bytes
        carry = self.config.carry_algorithm_id
        now_fn = self.now
        dest_wire = destination.wire_id
        tr = self.tracer
        emit = tr.emit if tr.enabled else None
        pack_conf_ts = _CONF_TS.pack
        flows = 0
        sfls: List[int] = []
        confounders: List[int] = []
        timestamps: List[int] = []
        mac_keys: List[bytes] = []
        mac_inputs: List[bytes] = []
        states: List[FlowCryptoState] = []
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
            sfl = entry.sfl
            state = send_state(sfl, destination)
            confounder = next_u32()
            timestamp = encode_ts(now)
            sfls.append(sfl)
            confounders.append(confounder)
            timestamps.append(timestamp)
            mac_keys.append(state.mac_key)
            mac_inputs.append(pack_conf_ts(confounder, timestamp) + body)
            states.append(state)
            if emit is not None:
                # PKCS#7 always pads, so the wire body size under
                # encryption is the next multiple of 8 *above* len(body).
                size = ((len(body) | 7) + 1) if secret else len(body)
                emit(DatagramProtected(sfl=sfl, size=size, secret=secret))
        macs = _vector.keyed_md5_many(mac_keys, mac_inputs)
        if mac_bytes != 16:
            macs = [mac[:mac_bytes] for mac in macs]
        if secret:
            pack_u32 = _U32.pack
            ivs = []
            for confounder in confounders:
                four = pack_u32(confounder)
                ivs.append(four + four)
            out_bodies = _vector.cbc_encrypt_many(
                [state.cipher for state in states], ivs, bodies
            )
        else:
            out_bodies = list(bodies)
        heads = _vector.encode_headers_many(
            sfls,
            confounders,
            macs,
            timestamps,
            mac_bytes,
            suite_id=suite.suite_id if carry else None,
        )
        out = [heads[i] + out_bodies[i] for i in range(n)]
        self._c_sent.inc(n)
        self._c_bytes_out.inc(sum(len(body) for body in out_bodies))
        if flows:
            self._c_flows.inc(flows)
        if secret:
            self._c_encryptions.inc(n)
        return out

    # -- FBSReceive (Figure 4, right) ----------------------------------------------

    def unprotect(self, data: bytes, source: Principal, secret: bool = False) -> bytes:
        """FBSReceive: freshness, keying, decrypt, MAC verify.

        Returns the plaintext body, or raises a :class:`ReceiveError`
        subclass (the pseudo-code's ``return error`` paths).
        """
        self._c_received.inc()
        now = self.now()
        # (R2) parse the security flow header.
        try:
            header = FBSHeader.decode(
                data, self.config.suite, self.config.carry_algorithm_id
            )
        except HeaderFormatError:
            self._rejected("header")
            raise
        body = data[self.header_size :]
        # (R3-4) freshness.
        if not self.freshness.is_fresh(header.timestamp, now):
            self._rejected("stale_timestamp", header.sfl)
            raise StaleTimestampError(
                f"timestamp {header.timestamp} outside freshness window at {now}"
            )
        # (R5-6) recover the flow crypto state (via the RFKC).
        try:
            state = self._receive_flow_state(header.sfl, source)
        except FBSError:
            self._rejected("keying", header.sfl)
            raise
        # (R10-11 before R7-9; see the module docstring on Figure 4's
        # ordering) optional decryption with the flow's cached cipher.
        if secret:
            body = self._decrypt(state, header, body)
            if body is None:
                self._rejected("mac", header.sfl)
                raise MacMismatchError(
                    f"undecryptable body on datagram in flow {header.sfl:#x}"
                )
            self._c_decryptions.inc()
        # (R7-9) MAC verification over the plaintext.
        expected = state.mac(header.mac_input(body))
        if not constant_time_equal(expected, header.mac):
            self._rejected("mac", header.sfl)
            raise MacMismatchError(
                f"MAC mismatch on datagram in flow {header.sfl:#x}"
            )
        # Optional extension: suppress exact duplicates within the
        # freshness window (after MAC verification, so forged headers
        # cannot poison the memory).  Only the guard raises inside the
        # try; catching its ReceiveError here avoids importing the
        # concrete subclass (the guard module is an optional import).
        if self.replay_guard is not None:
            try:
                self.replay_guard.check_and_remember(header, now)
            except ReceiveError:
                self._rejected("duplicate", header.sfl)
                raise
        # (R12) deliver.
        self._c_accepted.inc()
        self._c_bytes_in.inc(len(body))
        tr = self.tracer
        if tr.enabled:
            tr.emit(DatagramAccepted(sfl=header.sfl, size=len(body)))
        return body

    def unprotect_batch(
        self,
        datagrams: Sequence[bytes],
        source: Principal,
        secret: bool = False,
        stamps: Optional[Sequence[float]] = None,
    ) -> BatchReceiveResult:
        """FBSReceive over a vector of datagrams.

        Unlike :meth:`unprotect`, a bad datagram does not raise: the
        result records ``None`` plus the rejection reason at that
        position, so per-datagram rejection accounting is preserved
        (each reason is counted by the same ``_rejected`` bookkeeping
        point the scalar path uses, and the reasons stay mutually
        exclusive).  Counters and events after a batch are identical to
        a scalar loop that catches :class:`ReceiveError` per datagram
        -- tests pin the equivalence.

        ``stamps`` optionally supplies per-datagram arrival times (for
        trace replay); without it every datagram reads the endpoint
        clock exactly as :meth:`unprotect` does.
        """
        n = len(datagrams)
        if stamps is not None and len(stamps) != n:
            raise FBSError("stamps must be parallel to datagrams")
        if n == 0:
            # An empty batch is a no-op: no counters, no events.
            return BatchReceiveResult()
        if n >= 2 and self._vector_ok:
            return self._unprotect_batch_vector(datagrams, source, secret, stamps)
        # Hoisted hot-path state: one load per batch, not per datagram.
        suite = self.config.suite
        carry = self.config.carry_algorithm_id
        decrypt = self._decrypt
        decode = FBSHeader.decode
        header_len = self._header_len
        is_fresh = self.freshness.is_fresh
        recv_state = self._receive_flow_state
        guard = self.replay_guard
        rejected = self._rejected
        now_fn = self.now
        tr = self.tracer
        emit = tr.emit if tr.enabled else None
        result = BatchReceiveResult()
        bodies = result.bodies
        reasons = result.reasons
        accepted = 0
        bytes_in = 0
        decryptions = 0
        self._c_received.inc(n)
        for i in range(n):
            data = datagrams[i]
            now = stamps[i] if stamps is not None else now_fn()
            try:
                header = decode(data, suite, carry)
            except HeaderFormatError:
                rejected("header")
                bodies.append(None)
                reasons.append("header")
                continue
            body = data[header_len:]
            if not is_fresh(header.timestamp, now):
                rejected("stale_timestamp", header.sfl)
                bodies.append(None)
                reasons.append("stale_timestamp")
                continue
            try:
                state = recv_state(header.sfl, source)
            except FBSError:
                rejected("keying", header.sfl)
                bodies.append(None)
                reasons.append("keying")
                continue
            if secret:
                body = decrypt(state, header, body)
                if body is None:
                    rejected("mac", header.sfl)
                    bodies.append(None)
                    reasons.append("mac")
                    continue
                decryptions += 1
            expected = state.mac(header.mac_input(body))
            if not constant_time_equal(expected, header.mac):
                rejected("mac", header.sfl)
                bodies.append(None)
                reasons.append("mac")
                continue
            if guard is not None:
                try:
                    guard.check_and_remember(header, now)
                except ReceiveError:
                    rejected("duplicate", header.sfl)
                    bodies.append(None)
                    reasons.append("duplicate")
                    continue
            accepted += 1
            bytes_in += len(body)
            if emit is not None:
                emit(DatagramAccepted(sfl=header.sfl, size=len(body)))
            bodies.append(body)
            reasons.append(None)
        self._c_accepted.inc(accepted)
        self._c_bytes_in.inc(bytes_in)
        if decryptions:
            self._c_decryptions.inc(decryptions)
        return result

    def _unprotect_batch_vector(
        self,
        datagrams: Sequence[bytes],
        source: Principal,
        secret: bool,
        stamps: Optional[Sequence[float]],
    ) -> BatchReceiveResult:
        """The numpy lane datapath behind :meth:`unprotect_batch`.

        Phase 1 walks the datagrams in order doing everything stateful
        and cheap (header decode, freshness, keying) and rejects
        inline.  Surviving lanes then take one flattened CBC decrypt
        and one keyed-MD5 sweep.  The final pass runs in datagram order
        again for MAC/duplicate rejection bookkeeping, the replay
        guard, and delivery -- so counter totals, per-index reasons,
        and replay-guard memory order all match the scalar loop.
        """
        n = len(datagrams)
        suite = self.config.suite
        carry = self.config.carry_algorithm_id
        mac_bytes = suite.mac_bytes
        decode = FBSHeader.decode
        header_len = self._header_len
        is_fresh = self.freshness.is_fresh
        recv_state = self._receive_flow_state
        guard = self.replay_guard
        rejected = self._rejected
        now_fn = self.now
        tr = self.tracer
        emit = tr.emit if tr.enabled else None
        self._c_received.inc(n)
        headers: List[Optional[FBSHeader]] = [None] * n
        states: List[Optional[FlowCryptoState]] = [None] * n
        lane_bodies: List[Optional[bytes]] = [None] * n
        nows: List[float] = [0.0] * n
        fails: List[Optional[str]] = [None] * n
        for i in range(n):
            data = datagrams[i]
            now = stamps[i] if stamps is not None else now_fn()
            nows[i] = now
            try:
                header = decode(data, suite, carry)
            except HeaderFormatError:
                rejected("header")
                fails[i] = "header"
                continue
            if not is_fresh(header.timestamp, now):
                rejected("stale_timestamp", header.sfl)
                fails[i] = "stale_timestamp"
                continue
            try:
                states[i] = recv_state(header.sfl, source)
            except FBSError:
                rejected("keying", header.sfl)
                fails[i] = "keying"
                continue
            headers[i] = header
            lane_bodies[i] = data[header_len:]
        alive = [i for i in range(n) if fails[i] is None]
        decryptions = 0
        if secret and alive:
            plains = _vector.cbc_decrypt_many(
                [states[i].cipher for i in alive],
                [headers[i].iv() for i in alive],
                [lane_bodies[i] for i in alive],
            )
            survivors = []
            for position, i in enumerate(alive):
                plain = plains[position]
                if plain is None:
                    # Not a whole number of blocks, or garbled padding:
                    # the scalar path's decrypt ValueError.
                    rejected("mac", headers[i].sfl)
                    fails[i] = "mac"
                else:
                    lane_bodies[i] = plain
                    decryptions += 1
                    survivors.append(i)
            alive = survivors
        if alive:
            macs = _vector.keyed_md5_many(
                [states[i].mac_key for i in alive],
                [headers[i].mac_input(lane_bodies[i]) for i in alive],
            )
            for position, i in enumerate(alive):
                expected = macs[position][:mac_bytes]
                if not constant_time_equal(expected, headers[i].mac):
                    rejected("mac", headers[i].sfl)
                    fails[i] = "mac"
        result = BatchReceiveResult()
        bodies = result.bodies
        reasons = result.reasons
        accepted = 0
        bytes_in = 0
        for i in range(n):
            if fails[i] is not None:
                bodies.append(None)
                reasons.append(fails[i])
                continue
            header = headers[i]
            body = lane_bodies[i]
            if guard is not None:
                try:
                    guard.check_and_remember(header, nows[i])
                except ReceiveError:
                    rejected("duplicate", header.sfl)
                    bodies.append(None)
                    reasons.append("duplicate")
                    continue
            accepted += 1
            bytes_in += len(body)
            if emit is not None:
                emit(DatagramAccepted(sfl=header.sfl, size=len(body)))
            bodies.append(body)
            reasons.append(None)
        self._c_accepted.inc(accepted)
        self._c_bytes_in.inc(bytes_in)
        if decryptions:
            self._c_decryptions.inc(decryptions)
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
