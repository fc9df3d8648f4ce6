"""Synthetic campus-LAN and WWW-server workloads.

The paper's flow measurements come from two proprietary traces: a
"workgroup wide LAN, which has a number of file and compute servers in
addition to individual users' desktops", and "a lightly hit (about
10,000 hits per day) WWW server".  These generators synthesize traces
with the structural properties the paper's Figures 9-14 depend on:

* **Many short conversations** -- DNS lookups, WWW hits, short TELNET
  sessions -- so "the majority of flows are short, consist of few
  packets and transfer only a small amount of data" (Figure 9/10).
* **A few long-lived, heavy flows** -- NFS traffic and FTP data
  transfers -- so "there are a few long-lived flows (e.g., for NFS)
  that carry the bulk of the traffic".
* **Quiet periods inside interactive sessions** ("a long TELNET session
  with large quiet periods"), which split one conversation into several
  flows and produce *repeated flows* as THRESHOLD shrinks (Figure 14).
* **Ephemeral-port reuse** -- clients cycle through a bounded port
  range, so long traces reuse 5-tuples across distinct conversations
  (the other source of repeated flows, and the Section 7.1 port-reuse
  hazard).

Sizes and durations use heavy-tailed (Pareto / lognormal) distributions
with 1997-plausible parameters.  Everything is driven by one seeded RNG:
same seed, same trace.
"""

from __future__ import annotations

import math
import random as _random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.netsim.addresses import FiveTuple, IPAddress
from repro.netsim.ipv4 import IPProtocol
from repro.traces.records import PacketRecord, Trace

__all__ = [
    "CampusLanWorkload",
    "WwwServerWorkload",
    "WorkloadMix",
    "SyntheticUniformWorkload",
]

_TELNET = 23
_FTP_CTRL = 21
_FTP_DATA = 20
_NFS = 2049
_X11 = 6000
_DNS = 53
_HTTP = 80

_MSS = 1460


def _pareto(rng: _random.Random, alpha: float, xm: float, cap: float) -> float:
    """Bounded Pareto draw (heavy-tailed sizes)."""
    value = xm / (rng.random() ** (1.0 / alpha))
    return min(value, cap)


class _PortAllocator:
    """Per-host cyclic ephemeral port allocation (drives port reuse)."""

    def __init__(self, low: int = 1024, high: int = 3072) -> None:
        self._low = low
        self._high = high
        self._next: Dict[int, int] = {}

    def allocate(self, host: IPAddress) -> int:
        key = int(host)
        port = self._next.get(key, self._low)
        nxt = port + 1
        if nxt >= self._high:
            nxt = self._low
        self._next[key] = nxt
        return port


@dataclass
class _Emitter:
    """Accumulates records for one generated trace."""

    records: List[PacketRecord] = field(default_factory=list)

    def emit(
        self,
        time: float,
        proto: int,
        src: IPAddress,
        sport: int,
        dst: IPAddress,
        dport: int,
        size: int,
    ) -> None:
        self.records.append(
            PacketRecord(
                time=time,
                five_tuple=FiveTuple(
                    proto=proto, saddr=src, sport=sport, daddr=dst, dport=dport
                ),
                size=size,
            )
        )


class CampusLanWorkload:
    """The workgroup LAN: clients, file/compute servers, interactive use.

    Parameters
    ----------
    duration:
        Trace length, seconds.
    clients:
        Number of desktop machines.
    seed:
        Everything is derived from this.
    telnet_rate / ftp_rate / dns_rate / x11_rate:
        Poisson session-arrival rates per client, sessions/second.
    """

    def __init__(
        self,
        duration: float = 7200.0,
        clients: int = 16,
        seed: int = 0,
        telnet_rate: float = 1 / 1800.0,
        ftp_rate: float = 1 / 3600.0,
        dns_rate: float = 1 / 120.0,
        x11_rate: float = 1 / 7200.0,
        probe_rate: float = 1 / 450.0,
        nfs_clients_fraction: float = 0.75,
        base_network: str = "10.1.0.0",
    ) -> None:
        self.duration = duration
        self.seed = seed
        base = int(IPAddress(base_network))
        self.file_server = IPAddress(base + 250)
        self.compute_server = IPAddress(base + 251)
        self.name_server = IPAddress(base + 252)
        self.clients = [IPAddress(base + 1 + i) for i in range(clients)]
        self._telnet_rate = telnet_rate
        self._ftp_rate = ftp_rate
        self._dns_rate = dns_rate
        self._x11_rate = x11_rate
        self._probe_rate = probe_rate
        self._nfs_fraction = nfs_clients_fraction
        # RNG and port-allocator state are rebuilt inside generate() so
        # repeated generate() calls yield byte-identical traces (the
        # workload-determinism suite checks this for every workload).
        self._ports = _PortAllocator()
        self._resolver_ports: Dict[int, int] = {}

    # -- session generators ------------------------------------------------------

    def _telnet_session(self, em: _Emitter, rng: _random.Random, start: float, client: IPAddress) -> None:
        """Interactive session: keystrokes/echo with occasional long
        quiet periods (the flow-splitting case the paper discusses)."""
        sport = self._ports.allocate(client)
        server = self.compute_server
        length = min(rng.lognormvariate(math.log(600), 1.1), self.duration - start)
        t = start
        end = start + length
        while t < end:
            if rng.random() < 0.03:
                # A quiet period: user walked away.
                t += rng.expovariate(1 / 350.0)
                continue
            t += rng.expovariate(1 / 2.0)
            if t >= end:
                break
            em.emit(t, IPProtocol.TCP, client, sport, server, _TELNET, rng.randint(1, 16))
            em.emit(
                t + 0.01, IPProtocol.TCP, server, _TELNET, client, sport, rng.randint(1, 80)
            )

    def _ftp_session(self, em: _Emitter, rng: _random.Random, start: float, client: IPAddress) -> None:
        """Control conversation plus a heavy-tailed bulk data transfer."""
        ctrl_port = self._ports.allocate(client)
        data_port = self._ports.allocate(client)
        server = self.file_server
        # Control chit-chat.
        t = start
        for _ in range(rng.randint(4, 10)):
            em.emit(t, IPProtocol.TCP, client, ctrl_port, server, _FTP_CTRL, rng.randint(10, 60))
            em.emit(t + 0.02, IPProtocol.TCP, server, _FTP_CTRL, client, ctrl_port, rng.randint(20, 120))
            t += rng.expovariate(1 / 3.0)
        # Data transfer: server -> client bulk.
        total = int(_pareto(rng, alpha=1.15, xm=30_000, cap=20_000_000))
        packets = max(1, total // _MSS)
        gap = 0.0035  # ~3.3 Mb/s effective sender pacing
        td = t
        for i in range(packets):
            td += gap
            if td >= self.duration:
                break
            em.emit(td, IPProtocol.TCP, server, _FTP_DATA, client, data_port, _MSS)
            if i % 2 == 1:
                em.emit(td + 0.001, IPProtocol.TCP, client, data_port, server, _FTP_DATA, 0)

    def _nfs_session(self, em: _Emitter, rng: _random.Random, client: IPAddress) -> None:
        """A whole-trace NFS relationship: periodic request/read bursts.

        These are the long-lived flows that carry the bulk of the bytes.
        """
        sport = self._ports.allocate(client)
        server = self.file_server
        t = rng.uniform(0, 60.0)
        while t < self.duration:
            burst = rng.randint(1, 12)
            for _ in range(burst):
                em.emit(t, IPProtocol.UDP, client, sport, server, _NFS, rng.randint(96, 160))
                em.emit(t + 0.004, IPProtocol.UDP, server, _NFS, client, sport, 8192)
                t += 0.012
            t += rng.expovariate(1 / 25.0)

    def _x11_session(self, em: _Emitter, rng: _random.Random, start: float, client: IPAddress) -> None:
        """X display traffic: long session of event/draw bursts."""
        sport = self._ports.allocate(client)
        server = self.compute_server  # the remote app; client runs the display
        length = min(rng.lognormvariate(math.log(2400), 0.8), self.duration - start)
        t = start
        end = start + length
        while t < end:
            burst = rng.randint(2, 20)
            for _ in range(burst):
                em.emit(t, IPProtocol.TCP, server, sport, client, _X11, rng.randint(32, 1024))
                t += 0.005
            em.emit(t, IPProtocol.TCP, client, _X11, server, sport, rng.randint(8, 64))
            t += rng.expovariate(1 / 4.0)

    def _dns_lookup(self, em: _Emitter, rng: _random.Random, start: float, client: IPAddress) -> None:
        """The archetypal two-datagram conversation.

        The client resolver keeps one UDP socket per machine (as local
        named/stub caches did), so the 5-tuple is *stable* across
        lookups: whether consecutive lookups land in the same flow is
        purely a question of THRESHOLD vs. the lookup gap -- one of the
        behaviours Figures 13/14 turn on.
        """
        sport = self._resolver_ports.setdefault(
            int(client), self._ports.allocate(client)
        )
        em.emit(start, IPProtocol.UDP, client, sport, self.name_server, _DNS, rng.randint(28, 64))
        em.emit(
            start + rng.uniform(0.002, 0.05),
            IPProtocol.UDP,
            self.name_server,
            _DNS,
            client,
            sport,
            rng.randint(60, 300),
        )

    def _short_probe(self, em: _Emitter, rng: _random.Random, start: float, client: IPAddress) -> None:
        """A tiny conversation: finger/SMTP-style, a handful of packets.

        These are the population that makes "the majority of flows are
        short" true (Figure 9/10): each probe uses a fresh ephemeral
        port, so each is its own flow.
        """
        sport = self._ports.allocate(client)
        server = self.compute_server
        dport = rng.choice((79, 25, 113))  # finger, smtp, ident
        t = start
        for _ in range(rng.randint(1, 4)):
            em.emit(t, IPProtocol.TCP, client, sport, server, dport, rng.randint(16, 128))
            em.emit(t + 0.02, IPProtocol.TCP, server, dport, client, sport, rng.randint(16, 512))
            t += rng.expovariate(1 / 1.5)

    def _periodic_services(self, em: _Emitter, rng: _random.Random, client: IPAddress) -> None:
        """Background periodic daemons (NTP-style polls, route updates).

        Fixed ports both ends, poll intervals spread log-uniformly over
        64..1024 s -- gaps straddling the studied THRESHOLD range, which
        is what makes the active-flow count saturate for large
        THRESHOLD (Figure 13) and repeated flows decay as THRESHOLD
        grows (Figure 14).
        """
        t = rng.uniform(0, 120.0)
        while t < self.duration:
            em.emit(t, IPProtocol.UDP, client, 123, self.name_server, 123, 48)
            em.emit(t + 0.02, IPProtocol.UDP, self.name_server, 123, client, 123, 48)
            # Log-uniform poll interval in [64, 1024] s.
            t += 64.0 * (16.0 ** rng.random())

    # -- assembly ------------------------------------------------------------------

    def _poisson_arrivals(self, rng: _random.Random, rate: float) -> List[float]:
        arrivals = []
        t = rng.expovariate(rate) if rate > 0 else float("inf")
        while t < self.duration:
            arrivals.append(t)
            t += rng.expovariate(rate)
        return arrivals

    def generate(self) -> Trace:
        """Produce the LAN trace (idempotent: same seed, same bytes)."""
        em = _Emitter()
        rng = _random.Random(self.seed)
        self._ports = _PortAllocator()
        self._resolver_ports = {}
        for client in self.clients:
            self._periodic_services(em, rng, client)
            if rng.random() < self._nfs_fraction:
                self._nfs_session(em, rng, client)
            for start in self._poisson_arrivals(rng, self._telnet_rate):
                self._telnet_session(em, rng, start, client)
            for start in self._poisson_arrivals(rng, self._ftp_rate):
                self._ftp_session(em, rng, start, client)
            for start in self._poisson_arrivals(rng, self._dns_rate):
                self._dns_lookup(em, rng, start, client)
            for start in self._poisson_arrivals(rng, self._x11_rate):
                self._x11_session(em, rng, start, client)
            for start in self._poisson_arrivals(rng, self._probe_rate):
                self._short_probe(em, rng, start, client)
        trace = Trace(
            (r for r in em.records if r.time < self.duration),
            description=f"campus-lan seed={self.seed} dur={self.duration:.0f}s",
        )
        trace.sort()
        return trace


class WwwServerWorkload:
    """The lightly hit WWW server: ~10,000 hits/day of short conversations."""

    def __init__(
        self,
        duration: float = 7200.0,
        hits_per_day: float = 10_000.0,
        client_pool: int = 400,
        seed: int = 1,
        server_address: str = "10.2.0.80",
        client_network: str = "172.16.0.0",
    ) -> None:
        self.duration = duration
        self.seed = seed
        self.server = IPAddress(server_address)
        base = int(IPAddress(client_network))
        self.client_pool = [IPAddress(base + 1 + i) for i in range(client_pool)]
        self._rate = hits_per_day / 86400.0
        self._ports = _PortAllocator(low=1024, high=2048)

    def generate(self) -> Trace:
        """Produce the WWW server-side trace (idempotent)."""
        em = _Emitter()
        rng = _random.Random(self.seed)
        self._ports = _PortAllocator(low=1024, high=2048)
        t = rng.expovariate(self._rate)
        while t < self.duration:
            client = rng.choice(self.client_pool)
            sport = self._ports.allocate(client)
            # Request.
            em.emit(t, IPProtocol.TCP, client, sport, self.server, _HTTP, rng.randint(180, 500))
            # Heavy-tailed response, paced as a remote client would see it.
            size = int(_pareto(rng, alpha=1.2, xm=2_000, cap=5_000_000))
            packets = max(1, size // _MSS)
            tr = t + rng.uniform(0.01, 0.1)
            for i in range(packets):
                em.emit(tr, IPProtocol.TCP, self.server, _HTTP, client, sport, min(_MSS, size - i * _MSS))
                tr += 0.02
                if tr >= self.duration:
                    break
            t += rng.expovariate(self._rate)
        trace = Trace(
            (r for r in em.records if r.time < self.duration),
            description=f"www-server seed={self.seed} dur={self.duration:.0f}s",
        )
        trace.sort()
        return trace


class SyntheticUniformWorkload:
    """A load-generator workload: N flows, evenly paced datagrams.

    Unlike the trace-shaped workloads above, this one is built for the
    load replay (:mod:`repro.load`): ``flows`` distinct 5-tuples
    (distinct client addresses and ports toward one server) carry
    ``datagrams`` records round-robin at a uniform pace over
    ``duration`` seconds, with seeded payload sizes.
    Per-flow inter-arrival is ``duration * flows / datagrams`` -- keep
    that under the FBS THRESHOLD (it is, at the defaults) and every
    5-tuple maps to exactly one flow, which makes the expected counter
    totals trivially computable in tests.
    """

    def __init__(
        self,
        datagrams: int = 10_000,
        flows: int = 64,
        duration: float = 60.0,
        seed: int = 0,
        min_size: int = 64,
        max_size: int = 1024,
        server_address: str = "10.3.0.1",
        client_network: str = "10.3.1.0",
    ) -> None:
        if datagrams < 1:
            raise ValueError("need at least one datagram")
        if flows < 1:
            raise ValueError("need at least one flow")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 < min_size <= max_size:
            raise ValueError("need 0 < min_size <= max_size")
        self.datagrams = datagrams
        self.flows = flows
        self.duration = duration
        self.seed = seed
        self._min_size = min_size
        self._max_size = max_size
        self.server = IPAddress(server_address)
        base = int(IPAddress(client_network))
        self._tuples = [
            FiveTuple(
                proto=IPProtocol.UDP,
                saddr=IPAddress(base + 1 + (i % 250)),
                sport=1024 + (i // 250),
                daddr=self.server,
                dport=_HTTP,
            )
            for i in range(flows)
        ]

    def generate(self) -> Trace:
        """Produce the synthetic trace (seeded: same seed, same trace)."""
        rng = _random.Random(self.seed)
        step = self.duration / self.datagrams
        records = [
            PacketRecord(
                time=i * step,
                five_tuple=self._tuples[i % self.flows],
                size=rng.randint(self._min_size, self._max_size),
            )
            for i in range(self.datagrams)
        ]
        return Trace(
            records,
            description=(
                f"synthetic-uniform seed={self.seed} flows={self.flows} "
                f"n={self.datagrams} dur={self.duration:.0f}s"
            ),
        )


class WorkloadMix:
    """Convenience: generate and merge several workloads."""

    def __init__(self, *workloads) -> None:
        if not workloads:
            raise ValueError("need at least one workload")
        self._workloads = workloads

    def generate(self) -> Trace:
        traces = [w.generate() for w in self._workloads]
        merged = traces[0]
        for trace in traces[1:]:
            merged = merged.merged_with(trace)
        return merged
