"""The single workload registry: every consumer derives from here.

This module is the one place a workload registers; ``repro.load``
(CLI ``--workload`` choices, ``WorkerSpec`` replay), the trace sweep
harness, the cost budget and the tests all derive from it.

A *builder* is ``(seed, duration) -> workload`` where the workload has
an idempotent ``generate() -> Trace``; ``duration`` is ``None`` for
"use the workload's registered default".  Builders must be pure: the
same ``(name, seed, duration)`` yields the same trace in any process,
so a registered workload must not close over process-local state.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.traces.heavytail import (
    CdfSampledWorkload,
    FlashCrowd,
    OnOffArrivals,
)
from repro.traces.records import Trace
from repro.traces.workloads import (
    CampusLanWorkload,
    SyntheticUniformWorkload,
    WorkloadMix,
    WwwServerWorkload,
)

__all__ = [
    "WORKLOADS",
    "register_workload",
    "workload_names",
    "workload_summaries",
    "build_workload",
]

#: Builder signature: (seed, duration-or-None) -> workload with .generate().
WorkloadBuilder = Callable[[int, Optional[float]], object]

#: The registry: name -> builder.  Mutate only via register_workload.
WORKLOADS: Dict[str, WorkloadBuilder] = {}

_SUMMARIES: Dict[str, str] = {}


def register_workload(
    name: str, builder: WorkloadBuilder, summary: str = ""
) -> None:
    """Register a workload builder under ``name`` (must be unused)."""
    if name in WORKLOADS:
        raise ValueError(f"workload {name!r} already registered")
    WORKLOADS[name] = builder
    _SUMMARIES[name] = summary


def workload_names() -> List[str]:
    """Registered workload names, sorted (the CLI choices)."""
    return sorted(WORKLOADS)


def workload_summaries() -> Dict[str, str]:
    """Name -> one-line summary (the CLI ``--workload`` help text)."""
    return {name: _SUMMARIES[name] for name in workload_names()}


def build_workload(
    name: str,
    seed: int,
    duration: Optional[float] = None,
    datagrams: Optional[int] = None,
) -> Trace:
    """Generate the named workload's trace (same arguments, same trace)."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {workload_names()}"
        ) from None
    if datagrams is not None and datagrams < 0:
        raise ValueError(f"datagrams must be non-negative, got {datagrams}")
    trace = builder(seed, duration).generate()
    if datagrams is not None and len(trace) > datagrams:
        trace = Trace(
            list(trace)[:datagrams],
            description=f"{trace.description} [first {datagrams}]",
        )
    return trace


# -- the built-in catalogue ---------------------------------------------------
#
# The first five entries predate the registry and keep their exact
# parameters: their traces are byte-identical to the hardcoded
# originals, so existing seeded reports do not move.

register_workload(
    "smoke",
    lambda seed, duration: SyntheticUniformWorkload(
        datagrams=600, flows=24, duration=duration or 30.0, seed=seed
    ),
    "tiny uniform workload for CI smoke tiers (600 datagrams, 24 flows)",
)
register_workload(
    "synthetic",
    lambda seed, duration: SyntheticUniformWorkload(
        datagrams=10_000, flows=64, duration=duration or 60.0, seed=seed
    ),
    "evenly paced uniform load, 64 flows (the scaling-bench workload)",
)
register_workload(
    "campus-lan",
    lambda seed, duration: CampusLanWorkload(
        duration=duration or 600.0, clients=8, seed=seed
    ),
    "the paper's workgroup LAN: NFS/FTP elephants, TELNET/DNS mice",
)
register_workload(
    "www-server",
    lambda seed, duration: WwwServerWorkload(
        duration=duration or 600.0, hits_per_day=100_000.0, seed=seed
    ),
    "the paper's WWW server: Pareto response sizes, many short hits",
)
register_workload(
    "mix",
    lambda seed, duration: WorkloadMix(
        CampusLanWorkload(duration=duration or 600.0, clients=8, seed=seed),
        WwwServerWorkload(
            duration=duration or 600.0, hits_per_day=100_000.0, seed=seed + 1
        ),
    ),
    "campus LAN merged with the WWW server trace",
)

# -- the heavy-tailed family (ISSUE 10) ---------------------------------------
#
# CDF-sampled responses over persistent conversations; OFF gaps make
# flow-setup counts THRESHOLD-sensitive, which the uniform workloads
# are not.  size_cap keeps the elephants replayable at packet level.

register_workload(
    "cdf-web-search",
    lambda seed, duration: CdfSampledWorkload(
        cdf="web-search",
        duration=duration or 600.0,
        clients=24,
        seed=seed,
        arrivals=OnOffArrivals(rate=0.05, on_mean=120.0, off_mean=180.0),
        size_cap=262_144,
    ),
    "heavy-tailed web-search flow sizes over on/off conversations",
)
register_workload(
    "cdf-data-mining",
    lambda seed, duration: CdfSampledWorkload(
        cdf="data-mining",
        duration=duration or 600.0,
        clients=24,
        seed=seed,
        arrivals=OnOffArrivals(rate=0.08, on_mean=120.0, off_mean=180.0),
        size_cap=262_144,
    ),
    "extreme-tail data-mining flow sizes (half the flows fit one packet)",
)
register_workload(
    "onoff-bursty",
    lambda seed, duration: CdfSampledWorkload(
        cdf="web-search",
        duration=duration or 600.0,
        clients=16,
        seed=seed,
        arrivals=OnOffArrivals(rate=0.5, on_mean=20.0, off_mean=120.0),
        size_cap=65_536,
    ),
    "tight request bursts separated by long idle gaps (worst THRESHOLD case)",
)
register_workload(
    "flash-crowd",
    lambda seed, duration: CdfSampledWorkload(
        cdf="web-search",
        duration=duration or 600.0,
        clients=32,
        seed=seed,
        arrivals=OnOffArrivals(rate=0.04, on_mean=180.0, off_mean=60.0),
        flash_crowd=FlashCrowd(
            start=(duration or 600.0) / 3.0,
            duration=(duration or 600.0) / 6.0,
            multiplier=10.0,
        ),
        size_cap=131_072,
    ),
    "web-search sizes with a 10x arrival-rate spike over a mid-trace window",
)
