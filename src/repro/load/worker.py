"""The load replay: one seeded workload through one endpoint pair.

``run_worker`` regenerates a registered workload and replays it in
batches through a private sender/receiver :class:`FBSEndpoint` pair
with private metric registries, in this process.

Batch-exact configuration.  Three choices make a flow's counters depend
only on that flow's own datagrams and stamps, so the cut of the stream
into batches changes no counter, gauge or histogram (DESIGN.md
section 10; ``tests/load/test_worker.py`` checks it on every registered
workload):

* the FST is an :class:`~repro.core.flows.UnboundedFlowTable` -- no
  hash collisions, so no cross-flow evictions;
* the flow-key caches run fully associative (``ways == size``) and
  large enough that no eviction occurs (:func:`check_invariants`
  verifies ``cache_evictions == 0``);
* every datagram carries its own trace timestamp (``stamps``) through
  the batch API, so classification and freshness see identical times
  whatever the batch size.
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
from repro.obs import JsonlSink, MetricsRegistry, Tracer, merge_snapshots, parse_metric_key
from repro.traces.registry import build_workload

__all__ = ["WorkerSpec", "LoadError", "run_worker", "check_invariants"]


class LoadError(RuntimeError):
    """A replay invariant failed (the run's numbers cannot be trusted)."""


@dataclass(frozen=True)
class WorkerSpec:
    """One replay: workload, seed, size, secrecy, batch."""

    #: Always 0 and 1: the replay runs one endpoint pair in this process.
    worker: int
    workers: int
    workload: str
    seed: int = 0
    duration: Optional[float] = None
    datagrams: Optional[int] = None
    secret: bool = False
    batch: int = 256
    #: When set, write the JSONL event trace to ``<trace_dir>/load.jsonl``.
    trace_dir: Optional[str] = None
    #: When True, measure real CPU/wall time around the replay loop
    #: (bench mode only: the canonical report must stay byte-stable).
    timing: bool = False

    def __post_init__(self) -> None:
        if (self.worker, self.workers) != (0, 1):
            raise ValueError(
                f"one inline worker only: got worker={self.worker}, workers={self.workers}"
            )


#: Flow-key cache size and associativity of both endpoints: fully
#: associative and large enough that no workload evicts.
CACHE_SIZE = 4096
#: The batch-exact configuration; everything else is the paper's default.
EXACT = FBSConfig(
    tfkc_size=CACHE_SIZE, tfkc_ways=CACHE_SIZE,
    rfkc_size=CACHE_SIZE, rfkc_ways=CACHE_SIZE,
)  # fmt: skip

#: Deterministic payload pattern, sliced per datagram size.
_PAYLOAD = bytes(range(256)) * 8


class _SimClock:
    """A settable simulation clock cell (the endpoints' ``now``)."""

    __slots__ = ("t",)

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _make_endpoint(domain: FBSDomain, name: str, clock: _SimClock, sfl_seed: int, tracer):
    principal = Principal.from_name(name)
    fam = FlowAssociationMechanism(
        mapper=FiveTuplePolicy(threshold=domain.config.threshold),
        fst=UnboundedFlowTable(),
        sfl_seed=sfl_seed,
    )
    return FBSEndpoint(
        principal=principal,
        mkd=domain.enroll_principal(principal, now=clock),
        fam=fam,
        config=domain.config,
        now=clock,
        confounder_seed=sfl_seed * 7919 + 1,
        tracer=tracer,
        registry=MetricsRegistry(),
    )


def run_worker(spec: WorkerSpec) -> Dict[str, object]:
    """Replay the workload and return its plain-data result.

    The result holds the workload size, the merged sender+receiver
    metrics snapshot, acceptance/rejection totals read back from the
    registry (the authoritative source), and -- in timing mode only --
    real CPU/wall seconds spent inside the replay loop.  Raises
    :class:`LoadError` when :func:`check_invariants` fails.
    """
    records = build_workload(spec.workload, spec.seed, spec.duration, spec.datagrams)
    clock = _SimClock()
    domain = FBSDomain(seed=spec.seed, config=EXACT)
    sink = tracer = None
    if spec.trace_dir is not None:
        sink = JsonlSink(f"{spec.trace_dir}/load.jsonl")
        tracer = Tracer(sink, now=clock)
    sender = _make_endpoint(domain, "load-sender-0", clock, 1, tracer)
    receiver = _make_endpoint(domain, "load-receiver-0", clock, 2, tracer)
    receiver_wire = receiver.principal.wire_id
    batch = max(1, spec.batch)
    if spec.timing:
        # Real clocks live in repro.bench; imported lazily so the
        # canonical (byte-stable) path never touches them.
        from repro.bench.clocks import process_cpu_seconds, wall_seconds

        cpu0, wall0 = process_cpu_seconds(), wall_seconds()
    for start in range(0, len(records), batch):
        chunk = records[start : start + batch]
        stamps = [r.time for r in chunk]
        clock.t = stamps[-1]
        bodies = [_PAYLOAD[: r.size] for r in chunk]
        attributes = [
            DatagramAttributes(destination_id=receiver_wire, five_tuple=r.five_tuple, size=r.size)
            for r in chunk
        ]
        wire = sender.protect_batch(
            bodies, receiver.principal, attributes=attributes, secret=spec.secret, stamps=stamps
        )
        receiver.unprotect_batch(wire, sender.principal, secret=spec.secret, stamps=stamps)
    if spec.timing:
        cpu, wall = process_cpu_seconds() - cpu0, wall_seconds() - wall0
    if sink is not None:
        sink.close()

    snapshot = merge_snapshots([sender.registry.snapshot(), receiver.registry.snapshot()])
    counters = snapshot["counters"]
    rejected = {
        parse_metric_key(key)[1]["reason"]: value
        for key, value in counters.items()
        if parse_metric_key(key)[0] == "datagrams_rejected"
    }
    result: Dict[str, object] = {
        "datagrams": len(records),
        "sent": counters.get("datagrams_sent", 0),
        "received": counters.get("datagrams_received", 0),
        "accepted": counters.get("datagrams_accepted", 0),
        "rejected": rejected,
        "bytes_protected": counters.get("bytes_protected", 0),
        "bytes_accepted": counters.get("bytes_accepted", 0),
        "flows": counters.get("flows_started", 0),
        "sim_duration": records.duration,
        "snapshot": snapshot,
    }
    if spec.timing:
        result["cpu_seconds"] = cpu
        result["wall_seconds"] = wall
    check_invariants(result)
    return result


def check_invariants(result: Dict[str, object]) -> None:
    """Ledger checks over a finished replay; raises :class:`LoadError`.

    * ``received == accepted + sum(rejected)``;
    * batch-exactness precondition: zero cache evictions (one would make
      a flow's behaviour depend on which flows shared the caches).
    """
    ledger = result["accepted"] + sum(result["rejected"].values())
    if result["received"] != ledger:
        raise LoadError(f"received {result['received']} != accepted+rejected {ledger}")
    evictions = sum(
        value
        for key, value in result["snapshot"]["counters"].items()
        if parse_metric_key(key)[0] == "cache_evictions"
    )
    if evictions:
        raise LoadError(
            f"{evictions} cache evictions recorded; raise CACHE_SIZE -- "
            "batch exactness requires eviction-free flow-key caches"
        )
