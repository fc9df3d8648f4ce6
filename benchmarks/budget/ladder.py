"""The traced run: one workload's per-layer ladder, from S-box to socket.

The rungs are fed the inputs the workload itself generated:

0. kernels        -- ``repro.crypto`` alone on the workload's bodies;
1. core           -- ``protect``/``unprotect`` in memory on a warm pair;
2. plain hops     -- the same byte counts through ``repro.transport`` with
                     no FBS at all (the paper's "plain IP" row);
3. the workload   -- its own loop for a fixed number of operations, once
                     untraced and once with a span around every call the
                     benchmark makes into a layer, on netsim and on UDP.

A layer's self time is its rung minus the rung below.  Spans are recorded
from here, around public calls; nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.errors import FBSError
from repro.core.fam import DatagramAttributes
from repro.core.header import FBSHeader
from repro.core.keying import FlowCryptoState, KeyDerivation, Principal
from repro.crypto import modes, vector
from repro.crypto.des import DES
from repro.load.worker import WorkerSpec, run_worker
from repro.netsim.network import Network
from repro.obs.registry import merge_snapshots, parse_metric_key
from repro.obs.sinks import RingBufferSink
from repro.transport.netsim import netsim_transport_pair
from repro.transport.udp import UdpTransport

from measure import Spans, Window, median, percentile, wall
from workloads import OAKLEY2, TIMEOUT, Workload

__all__ = ["PER_LAYER", "run_ladder"]

#: Every per-layer metric, with its unit and direction (BENCHMARK.json's
#: ``per_layer`` list is this table).  A metric that does not apply to a
#: workload reads 0 there.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("crypto.mac_us", "us", "lower"),
    ("crypto.encrypt_us", "us", "lower"),
    ("crypto.decrypt_us", "us", "lower"),
    ("crypto.mac_lane_us", "us", "lower"),
    ("crypto.encrypt_lane_us", "us", "lower"),
    ("crypto.decrypt_lane_us", "us", "lower"),
    ("crypto.dh_agree_us", "us", "lower"),
    ("crypto.cert_verify_us", "us", "lower"),
    ("crypto.flow_key_us", "us", "lower"),
    ("core.protect_us", "us", "lower"),
    ("core.unprotect_us", "us", "lower"),
    ("core.protect_self_us", "us", "lower"),
    ("core.unprotect_self_us", "us", "lower"),
    ("core.protect_batch_us", "us", "lower"),
    ("core.unprotect_batch_us", "us", "lower"),
    ("core.batch_self_us", "us", "lower"),
    ("core.cold_peer_unprotect_us", "us", "lower"),
    ("core.new_flow_unprotect_us", "us", "lower"),
    ("core.reject_mac_us", "us", "lower"),
    ("core.reject_stale_us", "us", "lower"),
    ("core.reject_header_us", "us", "lower"),
    ("core.fam_classify_us", "us", "lower"),
    ("core.header_codec_us", "us", "lower"),
    ("core.fast_path_share", "ratio", "higher"),
    ("core.tfkc_hit_ratio", "ratio", "higher"),
    ("core.rfkc_hit_ratio", "ratio", "higher"),
    ("core.mkc_hit_ratio", "ratio", "higher"),
    ("core.flow_key_derivations_per_k", "count", "lower"),
    ("core.master_keys_per_k", "count", "lower"),
    ("core.des_schedules_per_k", "count", "lower"),
    ("transport.udp_hop_us", "us", "lower"),
    ("transport.plain_echo_rtt_us", "us", "lower"),
    ("transport.fbs_over_plain_ratio", "ratio", "lower"),
    ("transport.netsim_hop_us", "us", "lower"),
    ("transport.channel_self_us", "us", "lower"),
    ("transport.queue_drop_share", "ratio", "lower"),
    ("transport.kernel_drop_share", "ratio", "lower"),
    ("gateway.serve_us", "us", "lower"),
    ("gateway.self_us", "us", "lower"),
    ("gateway.first_contact_us", "us", "lower"),
    ("gateway.new_flow_us", "us", "lower"),
    ("gateway.warm_us", "us", "lower"),
    ("gateway.admissions_per_k", "count", "lower"),
    ("gateway.evictions_per_k", "count", "lower"),
    ("gateway.backpressure_drops", "count", "lower"),
    ("gateway.max_queued", "count", "lower"),
    ("gateway.rejected_mac", "count", "lower"),
    ("gateway.rejected_stale", "count", "lower"),
    ("gateway.rejected_header", "count", "lower"),
    ("gateway.queue_wait_us", "us", "lower"),
    ("load.run_worker_dps", "1/s", "higher"),
    ("load.harness_self_us", "us", "lower"),
    ("load.lane_speedup", "ratio", "higher"),
    ("obs.tracer_on_overhead_pct", "%", "lower"),
    ("obs.snapshot_us", "us", "lower"),
    ("bench.rung_kernels_us", "us", "lower"),
    ("bench.rung_core_us", "us", "lower"),
    ("bench.rung_netsim_us", "us", "lower"),
    ("bench.rung_top_us", "us", "lower"),
    ("bench.latency_p99_us", "us", "lower"),
    ("bench.samples", "count", "higher"),
    ("bench.generator_late_us_p99", "us", "lower"),
    ("bench.busy_share", "ratio", "higher"),
    ("bench.shed_share", "ratio", "lower"),
    ("bench.failed_share", "ratio", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
)

#: Fixed operation counts of the top rung, so counts repeat for a seed.
OPS = {
    "echo-mac-1k": 600,
    "echo-secret-512": 240,
    "gw-small-64": 2000,
    "gw-churn-256": 480,
    "gw-flood-1k": 8000,
    "replay-secret-cdf": 24,
}
#: The fixed count is run in this many chunks, untraced and traced
#: alternating, so a drift of the host lands on both.
CHUNKS = 4


def _per_call_us(call: Callable[[], object], reps: int, block: int = 1) -> float:
    """Median microseconds of ``call`` over ``reps`` timed blocks."""
    samples = []
    for _ in range(reps):
        start = wall()
        for _ in range(block):
            call()
        samples.append((wall() - start) / block * 1e6)
    return median(samples)


def _over(items: Sequence, call: Callable[[object], object], rounds: int = 2) -> float:
    """Median microseconds of ``call(item)`` over every item, ``rounds`` times."""
    samples = []
    for _ in range(rounds):
        for item in items:
            start = wall()
            call(item)
            samples.append((wall() - start) * 1e6)
    return median(samples)


def _rejects(endpoint, wire: bytes, peer: Principal) -> None:
    try:
        endpoint.unprotect(wire, peer)
    except FBSError:
        return
    raise RuntimeError("a hostile datagram was accepted")


class _Cell:
    """A settable clock for the in-memory pair."""

    def __init__(self) -> None:
        self.t = 1000.0

    def __call__(self) -> float:
        return self.t


def kernel_rung(bodies: Sequence[bytes], secret: bool, seed: int, quick: bool) -> Dict[str, float]:
    """Rung 0: ``repro.crypto`` on the workload's bodies, scalar and lanes."""
    suite = FBSConfig().suite
    kdf = KeyDerivation(suite)
    source, destination = Principal.from_name("s"), Principal.from_name("d")
    flow_key = kdf.flow_key(seed + 1, b"\x5a" * 128, source, destination)
    state = FlowCryptoState(flow_key, suite)
    prefix = struct.pack(">II", 0x01020304, 0x0A0B0C0D)
    iv = prefix[:4] * 2
    scalar = bodies[: 8 if quick else 32]
    out = {"crypto.mac_us": _over(scalar, lambda body: state.mac(prefix + body))}
    cbc = suite.cipher_mode
    sealed = [modes.encrypt(cbc, state.cipher, iv, body) for body in scalar]
    out["crypto.encrypt_us"] = _over(
        scalar, lambda body: modes.encrypt(cbc, state.cipher, iv, body), 1
    )
    out["crypto.decrypt_us"] = _over(
        sealed, lambda body: modes.decrypt(cbc, state.cipher, iv, body), 1
    )
    lanes = [bodies[i % len(bodies)] for i in range(64)]
    keys, ciphers, ivs = [state.mac_key] * 64, [state.cipher] * 64, [iv] * 64
    inputs = [prefix + body for body in lanes]
    sealed = vector.cbc_encrypt_many(ciphers, ivs, lanes)
    reps = 2 if quick else 5
    out["crypto.mac_lane_us"] = _per_call_us(lambda: vector.keyed_md5_many(keys, inputs), reps) / 64
    out["crypto.encrypt_lane_us"] = _per_call_us(lambda: vector.cbc_encrypt_many(ciphers, ivs, lanes), reps) / 64
    out["crypto.decrypt_lane_us"] = _per_call_us(lambda: vector.cbc_decrypt_many(ciphers, ivs, sealed), reps) / 64
    domain = FBSDomain(seed=seed, group=OAKLEY2)
    domain.enroll_principal(source)
    domain.enroll_principal(destination)
    own = domain.private_keys[source.name]
    certificate = domain.directory.fetch(destination.wire_id)
    out["crypto.dh_agree_us"] = _per_call_us(
        lambda: own.agree(certificate.public_value), 3 if quick else 8
    )
    out["crypto.cert_verify_us"] = _per_call_us(
        lambda: certificate.verify(domain.ca.public_key, 0.0), 4 if quick else 16
    )
    master = own.agree(certificate.public_value)
    out["crypto.flow_key_us"] = _per_call_us(
        lambda: FlowCryptoState(kdf.flow_key(7, master, source, destination), suite),
        16 if quick else 64,
    )
    return out


def core_rung(
    bodies: Sequence[bytes], secret: bool, seed: int, quick: bool, kernels: Dict[str, float]
) -> Dict[str, float]:
    """Rung 1: the endpoint pair in memory, warm, then its cold and
    hostile paths one at a time."""
    config = FBSConfig(tfkc_ways=64, rfkc_ways=64)
    domain = FBSDomain(seed=seed, group=OAKLEY2, config=config)
    clock = _Cell()
    a = domain.make_endpoint(Principal.from_name("core-a"), now=clock, sfl_seed=1)
    b = domain.make_endpoint(Principal.from_name("core-b"), now=clock, sfl_seed=2)
    scalar = bodies[: 8 if quick else 32]
    b.unprotect(a.protect(scalar[0], b.principal, secret=secret), a.principal, secret=secret)
    wires = [a.protect(body, b.principal, secret=secret) for body in scalar]
    out = {
        "core.protect_us": _over(scalar, lambda body: a.protect(body, b.principal, secret=secret)),
        "core.unprotect_us": _over(wires, lambda wire: b.unprotect(wire, a.principal, secret=secret)),
    }
    cipher_out = kernels["crypto.encrypt_us"] if secret else 0.0
    cipher_in = kernels["crypto.decrypt_us"] if secret else 0.0
    out["core.protect_self_us"] = out["core.protect_us"] - kernels["crypto.mac_us"] - cipher_out
    out["core.unprotect_self_us"] = out["core.unprotect_us"] - kernels["crypto.mac_us"] - cipher_in

    lanes = [bodies[i % len(bodies)] for i in range(64)]
    sealed = a.protect_batch(lanes, b.principal, secret=secret)
    reps = 2 if quick else 5
    out["core.protect_batch_us"] = _per_call_us(
        lambda: a.protect_batch(lanes, b.principal, secret=secret), reps) / 64
    out["core.unprotect_batch_us"] = _per_call_us(
        lambda: b.unprotect_batch(sealed, a.principal, secret=secret), reps) / 64
    lane_work = 2 * kernels["crypto.mac_lane_us"]
    if secret:
        lane_work += kernels["crypto.encrypt_lane_us"] + kernels["crypto.decrypt_lane_us"]
    out["core.batch_self_us"] = (
        out["core.protect_batch_us"] + out["core.unprotect_batch_us"] - lane_work
    )

    body = sorted(bodies, key=len)[len(bodies) // 2]
    cold = []
    for i in range(3 if quick else 6):
        stranger = domain.make_endpoint(Principal.from_name(f"core-cold-{i}"), now=clock)
        wire = stranger.protect(body, b.principal)
        start = wall()
        b.unprotect(wire, stranger.principal)
        cold.append((wall() - start) * 1e6)
    out["core.cold_peer_unprotect_us"] = median(cold)
    fresh = []
    for _ in range(8 if quick else 32):
        a.fam.flush()  # the next datagram starts a new flow, same peer
        wire = a.protect(body, b.principal)
        start = wall()
        b.unprotect(wire, a.principal)
        fresh.append((wall() - start) * 1e6)
    out["core.new_flow_unprotect_us"] = median(fresh)

    good = a.protect(body, b.principal)
    forged = good[:-1] + bytes([good[-1] ^ 0x01])
    clock.t -= 4 * 3600.0
    stale = a.protect(body, b.principal)
    clock.t += 4 * 3600.0
    reps = 8 if quick else 32
    out["core.reject_mac_us"] = _per_call_us(lambda: _rejects(b, forged, a.principal), reps)
    out["core.reject_stale_us"] = _per_call_us(lambda: _rejects(b, stale, a.principal), reps)
    out["core.reject_header_us"] = _per_call_us(lambda: _rejects(b, good[:20], a.principal), reps)

    attributes = DatagramAttributes(destination_id=b.principal.wire_id, size=len(body))
    out["core.fam_classify_us"] = _per_call_us(
        lambda: a.fam.classify(attributes, clock.t), reps, block=50)
    suite = config.suite
    header = FBSHeader.decode(good, suite)
    out["core.header_codec_us"] = _per_call_us(
        lambda: FBSHeader.decode(header.encode(suite), suite), reps, block=50)
    out["obs.snapshot_us"] = _per_call_us(b.registry.snapshot, reps)
    return out


async def hop_rung(sizes: Sequence[int], hosts: int, seed: int, quick: bool) -> Dict[str, float]:
    """Rung 2: plain bytes of the workload's wire sizes, no FBS at all.

    The simulated segment is a shared medium: every frame visits every
    station, so the netsim hop is measured with as many hosts attached
    as the workload's own segment has.
    """
    payloads = [bytes(size) for size in sizes]
    reps = 100 if quick else 400
    server = await UdpTransport.create()
    client = await UdpTransport.create(remote=server.local_address)
    hop, echo = [], []
    try:
        await client.send(payloads[0])
        await server.recv(TIMEOUT)  # the server adopts the client's address
        for i in range(reps):
            payload = payloads[i % len(payloads)]
            start = wall()
            await client.send(payload)
            got = await server.recv(TIMEOUT)
            mid = wall()
            await server.send(got)
            back = await client.recv(TIMEOUT)
            end = wall()
            if back != payload:
                raise RuntimeError("plain loopback echo lost a datagram")
            hop.append((mid - start) * 1e6)
            echo.append((end - start) * 1e6)
    finally:
        await client.close()
        await server.close()
    net = Network(seed=seed)
    net.add_segment("hop", "10.99.0.0")
    tx, rx = netsim_transport_pair(
        net.add_host("hop-tx", segment="hop"), net.add_host("hop-rx", segment="hop")
    )
    for i in range(hosts - 2):
        net.add_host(f"hop-idle-{i}", segment="hop")
    sim = []
    for i in range(reps):
        payload = payloads[i % len(payloads)]
        start = wall()
        tx.send_sync(payload)
        got = rx.recv_from_sync(TIMEOUT)
        sim.append((wall() - start) * 1e6)
        if got is None or got[0] != payload:
            raise RuntimeError("netsim hop lost a datagram")
    return {
        "transport.udp_hop_us": median(hop),
        "transport.plain_echo_rtt_us": median(echo),
        "transport.netsim_hop_us": median(sim),
    }


def _merge(windows: Sequence[Window]) -> Window:
    total = Window()
    for win in windows:
        total.wall_s += win.wall_s
        total.cpu_s += win.cpu_s
        for name in ("attempted", "failed", "delivered", "payload_bytes", "rejected"):
            setattr(total, name, getattr(total, name) + getattr(win, name))
        total.latencies_us += win.latencies_us
        total.late_us += win.late_us
        total.problems += win.problems
    return total


class _Moved:
    """How far the counters of some endpoints moved between two snapshots."""

    def __init__(self, endpoints) -> None:
        self.endpoints = endpoints
        self.before = self._read()

    def _read(self) -> Dict[str, int]:
        return merge_snapshots([e.registry.snapshot() for e in self.endpoints])["counters"]

    def stop(self) -> None:
        after = self._read()
        self.delta = {key: value - self.before.get(key, 0) for key, value in after.items()}

    def count(self, name: str, **labels: str) -> int:
        total = 0
        for key, value in self.delta.items():
            metric, found = parse_metric_key(key)
            if metric == name and all(found.get(k) == v for k, v in labels.items()):
                total += value
        return total

    def hit_ratio(self, cache: str) -> float:
        hits = self.count("cache_hits", cache=cache)
        lookups = hits + self.count("cache_misses", cache=cache)
        return hits / lookups if lookups else 0.0


async def _fixed(workload: Workload, ops: int, spans) -> Tuple[Window, Window]:
    """The fixed count in alternating untraced and traced chunks."""
    plain, traced = [], []
    for _ in range(CHUNKS):
        plain.append(await workload.run(ops=ops // CHUNKS))
        traced.append(await workload.run(ops=ops // CHUNKS, spans=spans))
    return _merge(plain), _merge(traced)


async def _p50_of(cls, seed: int, ops: int, **build) -> float:
    """Median latency of a fixed-count run on a variant of the workload."""
    variant = cls(seed, **build)
    await variant.setup()
    try:
        win = await variant.run(ops=ops)
    finally:
        await variant.teardown()
    if win.failed or win.problems:
        raise RuntimeError(f"{cls.name} variant {build}: {win.problems or win.failed}")
    return percentile(win.latencies_us, 0.5)


async def run_ladder(cls, seed: int, quick: bool = False):
    """All per-layer metrics of one workload.

    Returns ``(metrics, counts, spans, window, problems)``: ``counts`` are
    the registry counters after the fixed-count run (they repeat exactly
    for a seed), ``window`` is the untraced fixed-count run.
    """
    metrics = {name: 0.0 for name, _unit, _better in PER_LAYER}
    ops = max(CHUNKS, OPS[cls.name] // (8 if quick else 1))
    workload = cls(seed)
    await workload.setup()
    try:
        endpoints = workload.endpoints()
        moved = _Moved(endpoints)
        master_before = sum(e.mkd.master_keys_computed for e in endpoints)
        schedules_before = DES.schedule_builds
        spans = Spans()
        plain, traced = await _fixed(workload, ops, spans)
        moved.stop()
        master_keys = sum(e.mkd.master_keys_computed for e in endpoints) - master_before
        schedules = DES.schedule_builds - schedules_before
        problems = plain.problems + traced.problems + workload.check()
        counts = workload.counts()
        bodies = workload.sample_bodies()
        site = getattr(workload, "site", None)
        if site is not None:
            ledger = site.gateway.admission.ledger_dict()
            counts.update({
                "ledger.admitted": ledger["admitted"],
                "ledger.evicted": ledger["evicted"]["capacity"],
                "ledger.enqueued": ledger["enqueued"],
                "ledger.delivered": ledger["delivered"],
            })
            if workload.loop == "closed":
                counts["ledger.backpressure"] = ledger["dropped"]["backpressure"]
            metrics["gateway.backpressure_drops"] = ledger["dropped"]["backpressure"]
            metrics["gateway.max_queued"] = workload.max_queued
        if workload.loop == "open":
            # How much an overloaded socket sheds depends on timing, so the
            # open loop's counters do not repeat; its input classes do.
            counts = {f"offered.{kind}": workload.kinds.count(kind) for kind in sorted(set(workload.kinds))}
            queue_drops, kernel_drops = workload.drop_shares()
            metrics["transport.queue_drop_share"] = queue_drops
            metrics["transport.kernel_drop_share"] = kernel_drops
    finally:
        await workload.teardown()

    received = moved.count("datagrams_received")
    per_k = 1000.0 / received if received else 0.0
    on_receive = moved.count("flow_key_derivations", side="receive")
    metrics["core.fast_path_share"] = 1.0 - on_receive / received if received else 0.0
    metrics["core.tfkc_hit_ratio"] = moved.hit_ratio("TFKC")
    metrics["core.rfkc_hit_ratio"] = moved.hit_ratio("RFKC")
    metrics["core.mkc_hit_ratio"] = moved.hit_ratio("MKC")
    metrics["core.flow_key_derivations_per_k"] = moved.count("flow_key_derivations") * per_k
    metrics["core.master_keys_per_k"] = master_keys * per_k
    metrics["core.des_schedules_per_k"] = schedules * per_k
    if site is not None:
        # Only the gateway's registry has these; the tenants never receive.
        metrics["gateway.admissions_per_k"] = moved.count("gateway_tenants_admitted") * per_k
        metrics["gateway.evictions_per_k"] = moved.count("gateway_tenants_evicted") * per_k
        for metric, reason in (("mac", "mac"), ("stale", "stale_timestamp"), ("header", "header")):
            metrics[f"gateway.rejected_{metric}"] = moved.count("datagrams_rejected", reason=reason)

    kernels = kernel_rung(bodies, workload.secret, seed, quick)
    core = core_rung(bodies, workload.secret, seed, quick, kernels)
    header = 32
    sealed = [((len(b) | 7) + 1 if workload.secret else len(b)) + header for b in bodies]
    hosts = len(site.transports) + 1 if site is not None else 2
    hops = await hop_rung(sealed, hosts, seed, quick)
    metrics.update(kernels)
    metrics.update(core)
    metrics.update(hops)
    # The lower rungs in the unit of the top one: one operation's datagrams
    # (2 an exchange, 64 a batch), scalar calls or lanes as the workload uses.
    lanes = "_lane" if cls.per_operation > 2 else ""
    crypto = 2 * kernels[f"crypto.mac{lanes}_us"]
    if workload.secret:
        crypto += kernels[f"crypto.encrypt{lanes}_us"] + kernels[f"crypto.decrypt{lanes}_us"]
    batch = "_batch" if lanes else ""
    metrics["bench.rung_kernels_us"] = cls.per_operation * crypto
    metrics["bench.rung_core_us"] = cls.per_operation * (
        core[f"core.protect{batch}_us"] + core[f"core.unprotect{batch}_us"]
    )

    p50 = percentile(plain.latencies_us, 0.5)
    metrics["bench.rung_top_us"] = p50
    if workload.substrate == "netsim":
        metrics["bench.rung_netsim_us"] = p50
    metrics["bench.latency_p99_us"] = percentile(plain.latencies_us, 0.99)
    metrics["bench.samples"] = len(plain.latencies_us)
    metrics["bench.generator_late_us_p99"] = percentile(plain.late_us, 0.99)
    metrics["bench.busy_share"] = plain.cpu_s / plain.wall_s if plain.wall_s else 0.0
    if workload.loop == "open":
        settled = plain.delivered + plain.rejected + plain.failed
        metrics["bench.shed_share"] = 1.0 - settled / plain.attempted
    metrics["bench.failed_share"] = plain.failed / plain.attempted if plain.attempted else 0.0
    metrics["bench.trace_overhead_pct"] = (
        (percentile(traced.latencies_us, 0.5) - p50) / p50 * 100.0 if p50 else 0.0
    )

    durations = spans.durations_us()
    hop = hops["transport.netsim_hop_us" if workload.substrate == "netsim" else "transport.udp_hop_us"]
    serves = {
        name.rsplit(".", 1)[1]: median(values)
        for name, values in durations.items() if name.startswith("gateway.serve_once.")
    }
    if cls.name.startswith("echo"):
        metrics["transport.channel_self_us"] = (
            median(durations["channel.send"]) + median(durations["channel.recv"])
            - core["core.protect_us"] - core["core.unprotect_us"] - hop
        )
        metrics["transport.fbs_over_plain_ratio"] = p50 / hops["transport.plain_echo_rtt_us"]
        metrics["bench.rung_netsim_us"] = await _p50_of(cls, seed, ops // 2, substrate="netsim")
    elif site is not None:
        serve = serves.get("warm", serves.get("legit", 0.0))
        sent = median(durations.get("transport.send", [0.0]))
        metrics["gateway.serve_us"] = serve
        metrics["gateway.self_us"] = serve - (hop - sent) - core["core.unprotect_us"]
        metrics["gateway.first_contact_us"] = serves.get("first", 0.0)
        metrics["gateway.new_flow_us"] = serves.get("new", 0.0)
        metrics["gateway.warm_us"] = serves.get("warm", 0.0)
        if workload.loop == "open":
            metrics["gateway.queue_wait_us"] = p50 - serve
        else:
            metrics["transport.fbs_over_plain_ratio"] = p50 / hop
        if cls.name == "gw-small-64":
            metrics["bench.rung_netsim_us"] = await _p50_of(cls, seed, ops // 2, substrate="netsim")
            observed = await _p50_of(cls, seed, ops // 2, tracer=RingBufferSink())
            again = await _p50_of(cls, seed, ops // 2)
            metrics["obs.tracer_on_overhead_pct"] = (observed - again) / again * 100.0
    else:
        spec = dict(
            worker=0, workers=1, workload=cls.trace_name, seed=seed,
            datagrams=256 if quick else 2048, secret=True, batch=cls.batch, timing=True,
        )
        result = run_worker(WorkerSpec(**spec))
        per_datagram = result["wall_seconds"] / result["datagrams"] * 1e6
        metrics["load.run_worker_dps"] = 1e6 / per_datagram
        metrics["load.harness_self_us"] = per_datagram - (
            median(durations["core.protect_batch"]) + median(durations["core.unprotect_batch"])
        ) / cls.batch
        scalar = await _p50_of(
            type("ScalarReplay", (cls,), {"vectorize": False}), seed, 1 if quick else 2
        )
        metrics["load.lane_speedup"] = scalar / p50

    if workload.loop == "closed":
        # Median over operations of the time inside the spans of the calls
        # the operation made: what the layers account for between them.
        inside: Dict[int, float] = {}
        for name, start, end, parent, datagram in spans.rows:
            if parent is not None:
                inside[datagram] = inside.get(datagram, 0.0) + (end - start) * 1e6
        metrics["bench.unattributed_share"] = abs(p50 - median(list(inside.values()))) / p50
    return metrics, counts, spans, plain, problems
