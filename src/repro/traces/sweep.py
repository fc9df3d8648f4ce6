"""Large-scale THRESHOLD / cache-geometry sweeps over trace workloads.

The paper's Figures 11-13 feed two captured traces through flow
simulators to size the key caches and pick THRESHOLD.  This harness
replays that methodology over the whole workload registry -- including
the heavy-tailed CDF-sampled family of :mod:`repro.traces.heavytail` --
at 10-100x the paper's trace sizes, and machine-checks the claims the
figures make:

* **Figure 13** (flow setups vs THRESHOLD): the exact flow simulator
  runs per THRESHOLD; flow-setup counts must be monotone non-increasing
  in THRESHOLD on every trace, and must *strictly* fall on the
  burst/idle heavy-tailed traces (where gaps straddle the THRESHOLD
  range) -- raising THRESHOLD buys fewer setups exactly as the paper
  argues.
* **Figure 11** (cache miss ratio vs geometry): the cache simulator
  replays each trace from the server's viewpoint over a size x
  associativity grid.  Miss ratios must be monotone non-increasing in
  cache size per (trace, side, ways) -- guaranteed for power-of-two
  sizes under the CRC-modulo index, so a violation means the simulator
  or cache broke.
* **Full-crypto points**: each workload also replays through the real
  batch datapath (one inline :mod:`repro.load` worker) to prove the new
  workloads drive the production path: every datagram sent must come
  back accepted.

Reports are byte-stable: plain data, sorted keys, floats rounded --
``tests/test_report_determinism.py`` runs the smoke sweep under two
hash seeds and compares the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.netsim.addresses import IPAddress
from repro.traces.analysis import FlowAnalysis
from repro.traces.flowsim import CacheSimulator
from repro.traces.records import Trace
from repro.traces.registry import build_workload, WORKLOADS

__all__ = ["SweepError", "SweepSpec", "sweep_spec", "run_sweep", "check_gates"]

REPORT_VERSION = 1


class SweepError(RuntimeError):
    """A sweep gate failed (a figure-level claim does not hold)."""


#: Traces whose burst/idle gaps straddle the THRESHOLD grid, so raising
#: THRESHOLD must strictly reduce flow setups (the Figure 13 claim).
#: ``synthetic`` is the deliberate negative control: evenly paced
#: datagrams never split, so its setup count must not move at all.
_THRESHOLD_SENSITIVE = (
    "campus-lan",
    "cdf-data-mining",
    "cdf-web-search",
    "flash-crowd",
    "onoff-bursty",
)

#: Workloads excluded from sweeps: no single-server viewpoint.
_UNSWEEPABLE = ("mix", "smoke")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep run: workload grid, THRESHOLD grid, cache geometry grid."""

    profile: str = "smoke"
    seed: int = 0
    workloads: Tuple[str, ...] = ()
    duration: float = 240.0
    thresholds: Tuple[float, ...] = (30.0, 120.0, 600.0)
    cache_sizes: Tuple[int, ...] = (4, 16, 64)
    cache_ways: Tuple[int, ...] = (1, 4)
    crypto_datagrams: int = 400


def sweep_spec(
    profile: str = "smoke",
    seed: int = 0,
    workloads: Optional[Tuple[str, ...]] = None,
) -> SweepSpec:
    """The canonical grids for the ``smoke`` (CI) and ``full`` profiles."""
    if workloads is None:
        workloads = tuple(
            sorted(name for name in WORKLOADS if name not in _UNSWEEPABLE)
        )
    for name in workloads:
        if name not in WORKLOADS:
            raise ValueError(
                f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
            )
        if name in _UNSWEEPABLE:
            raise ValueError(f"workload {name!r} has no sweep viewpoint")
    if profile == "smoke":
        return SweepSpec(
            profile=profile,
            seed=seed,
            workloads=workloads,
            duration=240.0,
            thresholds=(30.0, 120.0, 600.0),
            cache_sizes=(4, 16, 64),
            cache_ways=(1, 4),
            crypto_datagrams=400,
        )
    if profile == "full":
        return SweepSpec(
            profile=profile,
            seed=seed,
            workloads=workloads,
            duration=3600.0,
            thresholds=(15.0, 60.0, 120.0, 300.0, 600.0, 1200.0),
            cache_sizes=(2, 8, 32, 128),
            cache_ways=(1, 2, 8),
            crypto_datagrams=4000,
        )
    raise ValueError(f"unknown profile {profile!r} (smoke or full)")


def _viewpoint(name: str, seed: int) -> IPAddress:
    """The server-side host the cache simulator replays from."""
    workload = WORKLOADS[name](seed, None)
    for attribute in ("server", "file_server"):
        address = getattr(workload, attribute, None)
        if address is not None:
            return address
    raise SweepError(f"workload {name!r} exposes no server viewpoint")


def _threshold_sweep(trace: Trace, thresholds: Tuple[float, ...]) -> List[dict]:
    rows = []
    for threshold in thresholds:
        analysis = FlowAnalysis.from_trace(trace, threshold=threshold)
        series = analysis.active_flow_series()
        rows.append(
            {
                "threshold": round(threshold, 6),
                "flows": analysis.total_flows,
                "repeated_flows": analysis.repeated_flows,
                "mean_active": round(series.mean, 3),
                "peak_active": series.peak,
            }
        )
    return rows


def _cache_sweep(
    trace: Trace,
    viewpoint: IPAddress,
    sizes: Tuple[int, ...],
    ways_grid: Tuple[int, ...],
    threshold: float,
) -> List[dict]:
    rows = []
    for side in ("receive", "send"):
        for ways in ways_grid:
            for size in sizes:
                if ways > size:
                    continue
                simulator = CacheSimulator(
                    size, threshold=threshold, ways=ways
                )
                if side == "send":
                    stats = simulator.send_side(trace, viewpoint)
                else:
                    stats = simulator.receive_side(trace, viewpoint)
                rows.append(
                    {
                        "side": side,
                        "size": size,
                        "ways": ways,
                        "lookups": stats.lookups,
                        "miss_rate": round(stats.miss_rate, 6),
                        "cold": stats.cold_misses,
                        "capacity": stats.capacity_misses,
                        "collision": stats.collision_misses,
                    }
                )
    return rows


def _crypto_point(name: str, seed: int, duration: float, datagrams: int) -> dict:
    """Replay the workload's head through the real batch datapath.

    Imported lazily: :mod:`repro.load` itself consumes the registry, so
    a module-level import would cycle during package initialization.
    """
    from repro.load.engine import LoadSpec, run_load

    run = run_load(
        LoadSpec(
            workers=1,
            workload=name,
            seed=seed,
            duration=duration,
            datagrams=datagrams,
            inline=True,
        )
    )
    worker = run["workers"][0]
    return {
        "datagrams": worker["datagrams"],
        "sent": worker["sent"],
        "received": worker["received"],
        "accepted": worker["accepted"],
        "rejected": {k: worker["rejected"][k] for k in sorted(worker["rejected"])},
        "flows": worker["flows"],
        "bytes_protected": worker["bytes_protected"],
    }


def run_sweep(spec: SweepSpec) -> dict:
    """Run the full grid; returns the report with gate results embedded."""
    traces: Dict[str, dict] = {}
    for name in spec.workloads:
        # The uniform control paces each flow at duration*flows/datagrams
        # seconds; stretching it to the full-profile hour would push the
        # pacing past the small end of the THRESHOLD grid and the
        # "setups never move" control property would stop being a
        # property of *uniformity*.  Cap its duration so per-flow pacing
        # stays below every swept THRESHOLD.
        duration = min(spec.duration, 600.0) if name == "synthetic" else spec.duration
        trace = build_workload(name, spec.seed, duration)
        viewpoint = _viewpoint(name, spec.seed)
        summary = FlowAnalysis.from_trace(
            trace, threshold=600.0
        ).summary()
        traces[name] = {
            "records": len(trace),
            "sim_duration": round(trace.duration, 6),
            "total_bytes": trace.total_bytes,
            "viewpoint": str(viewpoint),
            "threshold_sensitive": name in _THRESHOLD_SENSITIVE,
            "flow_summary": {
                key: round(float(value), 6) for key, value in sorted(summary.items())
            },
            "threshold_sweep": _threshold_sweep(trace, spec.thresholds),
            "cache_sweep": _cache_sweep(
                trace, viewpoint, spec.cache_sizes, spec.cache_ways, 600.0
            ),
            "crypto": _crypto_point(
                name, spec.seed, duration, spec.crypto_datagrams
            ),
        }
    report = {
        "report_version": REPORT_VERSION,
        "profile": spec.profile,
        "seed": spec.seed,
        "duration": round(spec.duration, 6),
        "thresholds": [round(t, 6) for t in spec.thresholds],
        "cache_sizes": list(spec.cache_sizes),
        "cache_ways": list(spec.cache_ways),
        "crypto_datagrams": spec.crypto_datagrams,
        "traces": traces,
    }
    report["gates"] = _evaluate_gates(report)
    report["ok"] = all(gate["ok"] for gate in report["gates"])
    return report


def _evaluate_gates(report: dict) -> List[dict]:
    """Machine-check the figure-level claims; one row per (gate, trace)."""
    gates: List[dict] = []

    def add(gate: str, trace: str, ok: bool, detail: str) -> None:
        gates.append({"gate": gate, "trace": trace, "ok": ok, "detail": detail})

    for name in sorted(report["traces"]):
        data = report["traces"][name]

        # Gate 1 (Figure 13): setups monotone non-increasing in THRESHOLD.
        flows = [row["flows"] for row in data["threshold_sweep"]]
        monotone = all(a >= b for a, b in zip(flows, flows[1:]))
        add(
            "threshold_monotone",
            name,
            monotone,
            f"flow setups over thresholds: {flows}",
        )

        # Gate 2: strict setup reduction on burst/idle heavy-tailed
        # traces; the uniform control must not move.
        if data["threshold_sensitive"]:
            ok = flows[-1] < flows[0]
            detail = (
                f"setups fell {flows[0]} -> {flows[-1]} as THRESHOLD grew"
                if ok
                else f"no setup reduction: {flows[0]} -> {flows[-1]}"
            )
            add("threshold_reduces_setups", name, ok, detail)
        elif name == "synthetic":
            ok = flows[-1] == flows[0]
            add(
                "threshold_uniform_control",
                name,
                ok,
                f"uniform trace setups stayed at {flows[0]}"
                if ok
                else f"uniform control moved: {flows}",
            )

        # Gate 3 (Figure 11): per (side, ways), miss ratio monotone
        # non-increasing in cache size.
        by_geometry: Dict[Tuple[str, int], List[Tuple[int, float]]] = {}
        for row in data["cache_sweep"]:
            by_geometry.setdefault((row["side"], row["ways"]), []).append(
                (row["size"], row["miss_rate"])
            )
        for (side, ways) in sorted(by_geometry):
            curve = sorted(by_geometry[(side, ways)])
            ok = all(
                a[1] >= b[1] - 1e-12 for a, b in zip(curve, curve[1:])
            )
            add(
                "cache_miss_monotone",
                name,
                ok,
                f"{side}/{ways}-way miss ratio over sizes: "
                + ", ".join(f"{size}:{rate:.4f}" for size, rate in curve),
            )

        # Gate 4: the full-crypto replay is clean end to end.
        crypto = data["crypto"]
        ok = (
            crypto["sent"] == crypto["datagrams"]
            and crypto["received"] == crypto["sent"]
            and crypto["accepted"] == crypto["received"]
            and sum(crypto["rejected"].values()) == 0
        )
        add(
            "crypto_clean_replay",
            name,
            ok,
            f"{crypto['datagrams']} datagrams, {crypto['accepted']} accepted, "
            f"rejected={crypto['rejected']}",
        )
    return gates


def check_gates(report: dict) -> None:
    """Raise :class:`SweepError` listing every failed gate."""
    failures = [gate for gate in report["gates"] if not gate["ok"]]
    if failures:
        lines = [
            f"{gate['gate']}[{gate['trace']}]: {gate['detail']}"
            for gate in failures
        ]
        raise SweepError(
            f"{len(failures)} sweep gate(s) failed:\n  " + "\n  ".join(lines)
        )
