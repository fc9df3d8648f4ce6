"""The load engine: fan shards out to worker processes, merge results.

``run_load`` partitions a seeded workload across N workers (one FBS
endpoint pair each, see :mod:`repro.load.worker`), runs them -- in
process for ``workers=1`` / ``inline=True``, else under
``multiprocessing`` with the **spawn** start method -- and folds the
per-worker metric snapshots into one aggregate view with
:func:`repro.obs.merge_snapshots`.

Spawn, not fork: a forked child would inherit the parent's Python heap
-- including any live FBS soft state, open trace sinks, and RNG
positions -- and the whole correctness story here rests on workers
sharing *nothing*.  Spawned workers rebuild their world from the
picklable :class:`~repro.load.worker.WorkerSpec` alone, so a worker's
result is a pure function of its spec (this is also what makes reports
byte-stable across runs and machines).

``check_invariants`` re-verifies the protocol ledger on every run:
per shard and in aggregate, ``received == accepted + sum(rejected)``,
the merged counters equal the per-worker sums, and -- the exactness
precondition -- no flow-key cache recorded a single eviction.
``verify_merge`` then proves the tentpole claim: the shard-invariant
slice of the N-worker merge equals a single-process run bit for bit.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional

from repro.load.worker import (
    WorkerSpec,
    run_worker,
    shard_invariant_view,
)
from repro.obs import merge_snapshots, parse_metric_key

__all__ = ["LoadSpec", "LoadError", "run_load", "check_invariants", "verify_merge"]


class LoadError(RuntimeError):
    """An engine invariant failed (the run's numbers cannot be trusted)."""


@dataclass(frozen=True)
class LoadSpec:
    """One load run: workload, sharding, and engine knobs."""

    workers: int = 1
    workload: str = "synthetic"
    seed: int = 0
    duration: Optional[float] = None
    datagrams: Optional[int] = None
    secret: bool = False
    batch: int = 256
    trace_dir: Optional[str] = None
    #: Wire hop between protect and unprotect (``direct`` or
    #: ``netsim``); see :class:`repro.load.worker.WorkerSpec.transport`.
    transport: str = "direct"
    #: Run every worker in this process even for ``workers > 1``
    #: (deterministic by construction either way; inline is what tests
    #: and the merge check use to avoid process start-up cost).
    inline: bool = False

    def worker_specs(self) -> List[WorkerSpec]:
        # Every field but the engine's own ``inline`` is a WorkerSpec
        # field of the same name; a worker adds its shard index.
        shared = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "inline"
        }
        return [WorkerSpec(worker=i, **shared) for i in range(self.workers)]


def run_load(spec: LoadSpec) -> Dict[str, object]:
    """Run the shards, merge their snapshots, verify the ledger.

    Returns ``{"spec", "workers", "merged"}`` where ``workers`` is the
    per-shard result list (index == shard) and ``merged`` is the
    snapshot-shaped merge of every shard's metrics.
    """
    if spec.workers < 1:
        raise ValueError("need at least one worker")
    specs = spec.worker_specs()
    if spec.inline or spec.workers == 1:
        results = [run_worker(s) for s in specs]
    else:
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=spec.workers) as pool:
            results = pool.map(run_worker, specs)
    results.sort(key=lambda r: r["worker"])
    merged = merge_snapshots([r["snapshot"] for r in results])
    run = {"spec": spec, "workers": results, "merged": merged}
    check_invariants(run)
    return run


def check_invariants(run: Dict[str, object]) -> None:
    """Protocol-ledger checks over a finished run; raises LoadError.

    * per shard: ``received == accepted + sum(rejected)``;
    * in aggregate: same identity over the merged counters, and the
      merged counters equal the per-worker sums;
    * exactness precondition: zero flow-key/master-key cache evictions
      anywhere (a single eviction would make per-flow behaviour depend
      on which flows share a worker, voiding the merge-equality claim).
    """
    results: List[Dict[str, object]] = run["workers"]
    merged: Dict[str, object] = run["merged"]
    for r in results:
        ledger = r["accepted"] + sum(r["rejected"].values())
        if r["received"] != ledger:
            raise LoadError(
                f"shard {r['worker']}: received {r['received']} != "
                f"accepted+rejected {ledger}"
            )
    counters = merged["counters"]
    total_rejected = sum(
        value
        for key, value in counters.items()
        if parse_metric_key(key)[0] == "datagrams_rejected"
    )
    received = counters.get("datagrams_received", 0)
    accepted = counters.get("datagrams_accepted", 0)
    if received != accepted + total_rejected:
        raise LoadError(
            f"aggregate: received {received} != accepted {accepted} "
            f"+ rejected {total_rejected}"
        )
    if received != sum(r["received"] for r in results):
        raise LoadError("merged received != sum of shard received")
    if accepted != sum(r["accepted"] for r in results):
        raise LoadError("merged accepted != sum of shard accepted")
    evictions = sum(
        value
        for key, value in counters.items()
        if parse_metric_key(key)[0] == "cache_evictions"
    )
    if evictions:
        raise LoadError(
            f"{evictions} cache evictions recorded; raise CACHE_SIZE -- "
            "merge exactness requires eviction-free flow-key caches"
        )


def verify_merge(spec: LoadSpec) -> Dict[str, object]:
    """Prove merged N-worker metrics equal the single-process run.

    Runs ``spec`` as requested plus a ``workers=1`` reference over the
    same workload and seed, and compares the shard-invariant views of
    the two merged snapshots (see
    :func:`repro.load.worker.shard_invariant_view` for why MKC/PVC
    instruments are excluded).  Returns the N-worker run with a
    ``merge_check`` field added; raises :class:`LoadError` with the
    first differing key on mismatch.
    """
    run = run_load(spec)
    reference = run_load(
        replace(spec, workers=1, trace_dir=None, transport="direct", inline=False)
    )
    sharded = shard_invariant_view(run["merged"])
    single = shard_invariant_view(reference["merged"])
    if sharded != single:
        for kind in ("counters", "gauges", "histograms"):
            keys = sorted(set(sharded[kind]) | set(single[kind]))
            for key in keys:
                a = sharded[kind].get(key)
                b = single[kind].get(key)
                if a != b:
                    raise LoadError(
                        f"merge mismatch at {kind}[{key}]: "
                        f"{spec.workers}-worker={a!r} single={b!r}"
                    )
        raise LoadError("merge mismatch (shape)")
    run["merge_check"] = {
        "workers": spec.workers,
        "reference_workers": 1,
        "result": "exact",
        "compared_counters": len(sharded["counters"]),
        "compared_gauges": len(sharded["gauges"]),
    }
    return run
