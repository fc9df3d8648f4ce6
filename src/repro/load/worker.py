"""One load-engine worker: a shard's endpoint pair and replay loop.

A worker is a self-contained FBS universe: it regenerates the seeded
workload, keeps only the records its shard owns (the
:class:`~repro.load.sharding.FlowSharder` is recomputable anywhere), and
replays them through a private sender/receiver endpoint pair with
private metric registries.  Nothing is shared between workers -- no
sockets, no locks, no inherited soft state -- which is both the
fork-safety discipline (``multiprocessing`` with the ``spawn`` start
method; see fbslint FBS009) and the reason merged metrics are exact.

Shard-exact configuration.  Three choices make a flow's counters depend
only on that flow's own datagrams, so that the merge over any worker
count reproduces the single-process run (DESIGN.md section 10):

* the FST is an :class:`~repro.core.flows.UnboundedFlowTable` -- no
  hash collisions, so no cross-flow evictions;
* the flow-key caches run fully associative (``ways == size``) and
  large enough that no eviction occurs (the engine verifies
  ``cache_evictions == 0`` in the merged snapshot);
* every datagram carries its own trace timestamp (``stamps``) through
  the batch API, so classification and freshness see identical times
  regardless of batching or sharding.

The per-endpoint-pair caches (MKC/PVC) are *not* shard-invariant -- N
workers perform N master-key exchanges where one process performs one --
which is why :func:`shard_invariant_view` excludes them from the
equality check (they are still merged and reported).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.fam import DatagramAttributes, FlowAssociationMechanism
from repro.core.flows import UnboundedFlowTable
from repro.core.keying import Principal
from repro.core.policy import FiveTuplePolicy
from repro.core.protocol import FBSEndpoint
from repro.load.sharding import FlowSharder
from repro.obs import JsonlSink, MetricsRegistry, Tracer, merge_snapshots, parse_metric_key

# The workload catalogue lives in repro.traces.registry (one registry
# for the load CLI choices, WorkerSpec replay, and the sweep harness).
from repro.traces.registry import build_workload

__all__ = ["WorkerSpec", "run_worker", "shard_invariant_view"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs, picklable for the spawn start method."""

    worker: int
    workers: int
    workload: str
    seed: int = 0
    duration: Optional[float] = None
    datagrams: Optional[int] = None
    secret: bool = False
    batch: int = 256
    #: When set, write a shard-tagged JSONL event trace to
    #: ``<trace_dir>/worker<i>.jsonl``.
    trace_dir: Optional[str] = None
    #: When True, measure real CPU/wall time around the replay loop
    #: (bench mode only: the canonical report must stay byte-stable).
    timing: bool = False
    #: Wire hop between protect and unprotect
    #: (:data:`repro.transport.hop.HOP_NAMES`): ``direct`` hands the
    #: batch over in memory (the historical wiring -- reports are
    #: byte-identical to pre-transport runs), ``netsim`` relays every
    #: batch through a :class:`~repro.transport.netsim.NetsimTransport`
    #: pair over a perfect simulated segment (same ledgers, datagrams
    #: genuinely traverse the transport interface).
    transport: str = "direct"


#: Flow-key cache size and associativity of every worker endpoint: fully
#: associative and large enough that no workload evicts (see the module
#: docstring).
CACHE_SIZE = 4096
#: The shard-exact configuration; everything else is the paper's default.
SHARD_EXACT = FBSConfig(
    tfkc_size=CACHE_SIZE, tfkc_ways=CACHE_SIZE,
    rfkc_size=CACHE_SIZE, rfkc_ways=CACHE_SIZE,
)


class _SimClock:
    """A settable simulation clock cell (the endpoints' ``now``)."""

    __slots__ = ("t",)

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


#: Deterministic payload pattern, sliced per datagram size.
_PAYLOAD = bytes(range(256)) * 8


def _make_endpoint(
    domain: FBSDomain,
    principal: Principal,
    clock: _SimClock,
    sfl_seed: int,
    tracer,
) -> FBSEndpoint:
    """An endpoint wired for shard-exact replay (see module docstring)."""
    registry = MetricsRegistry()
    mkd = domain.enroll_principal(principal, now=clock)
    fam = FlowAssociationMechanism(
        mapper=FiveTuplePolicy(threshold=domain.config.threshold),
        fst=UnboundedFlowTable(),
        sfl_seed=sfl_seed,
    )
    return FBSEndpoint(
        principal=principal,
        mkd=mkd,
        fam=fam,
        config=domain.config,
        now=clock,
        confounder_seed=sfl_seed * 7919 + 1,
        tracer=tracer,
        registry=registry,
    )


def run_worker(spec: WorkerSpec) -> Dict[str, object]:
    """Replay one shard and return its plain-data result.

    The result is a picklable dictionary: shard size, merged
    sender+receiver metrics snapshot, acceptance/rejection totals read
    back from the registry (the authoritative source), and -- in timing
    mode only -- real CPU/wall seconds spent inside the replay loop.
    """
    trace = build_workload(
        spec.workload, spec.seed, spec.duration, spec.datagrams
    )
    records = FlowSharder(spec.workers).filter_shard(trace, spec.worker)

    clock = _SimClock()
    domain = FBSDomain(seed=spec.seed, config=SHARD_EXACT)
    sender_name = f"load-sender-{spec.worker}"
    receiver_name = f"load-receiver-{spec.worker}"
    sink = None
    tracer = None
    if spec.trace_dir is not None:
        sink = JsonlSink(
            f"{spec.trace_dir}/worker{spec.worker}.jsonl",
            tags={"shard": spec.worker},
        )
        tracer = Tracer(sink, now=clock)
    sender_principal = Principal.from_name(sender_name)
    receiver_principal = Principal.from_name(receiver_name)
    sender = _make_endpoint(
        domain, sender_principal, clock, sfl_seed=2 * spec.worker + 1, tracer=tracer
    )
    receiver = _make_endpoint(
        domain, receiver_principal, clock, sfl_seed=2 * spec.worker + 2, tracer=tracer
    )

    receiver_wire = receiver_principal.wire_id
    batch = max(1, spec.batch)
    secret = spec.secret
    # The wire hop is built inside the worker process: hops hold live
    # simulator state and are not picklable, so the spec carries only
    # the substrate name.
    from repro.transport.hop import build_hop

    hop = build_hop(spec.transport, seed=spec.seed * 1000 + spec.worker)
    cpu = wall = None
    if spec.timing:
        # Real clocks live in repro.bench; imported lazily so the
        # canonical (byte-stable) path never touches them.
        from repro.bench.clocks import process_cpu_seconds, wall_seconds

        cpu0 = process_cpu_seconds()
        wall0 = wall_seconds()
    for start in range(0, len(records), batch):
        chunk = records[start : start + batch]
        stamps = [r.time for r in chunk]
        clock.t = stamps[-1]
        bodies = [_PAYLOAD[: r.size] for r in chunk]
        attributes = [
            DatagramAttributes(
                destination_id=receiver_wire,
                five_tuple=r.five_tuple,
                size=r.size,
            )
            for r in chunk
        ]
        wire = sender.protect_batch(
            bodies,
            receiver_principal,
            attributes=attributes,
            secret=secret,
            stamps=stamps,
        )
        delivered = hop.relay(wire)
        receiver.unprotect_batch(
            delivered, sender_principal, secret=secret, stamps=stamps
        )
    if spec.timing:
        cpu = process_cpu_seconds() - cpu0
        wall = wall_seconds() - wall0
    if sink is not None:
        sink.close()

    # Snapshot at the *workload's* end time, not the shard's: collectors
    # read the clock (active_flows compares entry ages against "now"),
    # so every worker -- and the single-process reference -- must
    # observe the same simulation instant for gauges to merge exactly.
    if len(trace):
        clock.t = trace[-1].time
    snapshot = merge_snapshots(
        [sender.registry.snapshot(), receiver.registry.snapshot()]
    )
    counters = snapshot["counters"]
    rejected = {
        parse_metric_key(key)[1]["reason"]: value
        for key, value in counters.items()
        if parse_metric_key(key)[0] == "datagrams_rejected"
    }
    result: Dict[str, object] = {
        "worker": spec.worker,
        "datagrams": len(records),
        "sent": counters.get("datagrams_sent", 0),
        "received": counters.get("datagrams_received", 0),
        "accepted": counters.get("datagrams_accepted", 0),
        "rejected": rejected,
        "bytes_protected": counters.get("bytes_protected", 0),
        "bytes_accepted": counters.get("bytes_accepted", 0),
        "flows": counters.get("flows_started", 0),
        "sim_duration": trace.duration,
        "snapshot": snapshot,
    }
    if spec.timing:
        result["cpu_seconds"] = cpu
        result["wall_seconds"] = wall
    return result


#: Caches whose behaviour is per endpoint *pair*, not per flow: N
#: workers perform N master-key exchanges where one process performs
#: one, so these counters legitimately differ across worker counts.
_PAIR_SCOPED_CACHES = frozenset({"mkc", "pvc"})


def shard_invariant_view(snapshot: Dict[str, object]) -> Dict[str, object]:
    """The subset of a snapshot that must merge exactly across shards.

    Keeps every counter and gauge driven purely by per-flow, per-datagram
    behaviour; drops MKC/PVC instruments (per-endpoint-pair state, see
    above) and the derived ``cache_hit_ratio`` gauges for those caches.
    Histograms pass through (none are pair-scoped today).
    """

    def keep(key: str) -> bool:
        labels = parse_metric_key(key)[1]
        return labels.get("cache", "").lower() not in _PAIR_SCOPED_CACHES

    return {
        "counters": {
            k: v for k, v in snapshot["counters"].items() if keep(k)
        },
        "gauges": {k: v for k, v in snapshot["gauges"].items() if keep(k)},
        "histograms": dict(snapshot["histograms"]),
    }
