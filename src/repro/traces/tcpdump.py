"""A tcpdump-like text codec for traces.

The authors captured their data with tcpdump; this codec lets our
synthetic traces round-trip through the same kind of artifact (and lets
users feed in their own captures converted to this line format).

Line format (one datagram per line)::

    <time> <saddr>.<sport> > <daddr>.<dport>: <proto> <size>

e.g. ``17.250000 10.0.0.5.1024 > 10.0.0.1.2049: udp 1460``.
Lines starting with ``#`` are comments.
"""

from __future__ import annotations

from typing import Iterable, Iterator, TextIO

from repro.netsim.addresses import FiveTuple, IPAddress
from repro.netsim.ipv4 import IPProtocol
from repro.traces.records import PacketRecord, Trace

__all__ = ["format_record", "parse_line", "dump", "load"]

_PROTO_NAMES = {IPProtocol.TCP: "tcp", IPProtocol.UDP: "udp", IPProtocol.ICMP: "icmp"}
_PROTO_NUMBERS = {name: int(num) for num, name in _PROTO_NAMES.items()}


def format_record(record: PacketRecord) -> str:
    """Render one record as a tcpdump-like line."""
    ft = record.five_tuple
    proto = _PROTO_NAMES.get(ft.proto, str(ft.proto))
    return (
        f"{record.time:.6f} {ft.saddr}.{ft.sport} > {ft.daddr}.{ft.dport}:"
        f" {proto} {record.size}"
    )


def parse_line(line: str) -> PacketRecord:
    """Parse one line back into a record.

    Raises
    ------
    ValueError
        On malformed input.
    """
    parts = line.split()
    if len(parts) != 6 or parts[2] != ">":
        raise ValueError(f"malformed trace line: {line!r}")
    time = float(parts[0])
    src = parts[1]
    dst = parts[3].rstrip(":")
    proto_name = parts[4]
    size = int(parts[5])

    def split_endpoint(endpoint: str):
        host, _, port = endpoint.rpartition(".")
        return IPAddress(host), int(port)

    saddr, sport = split_endpoint(src)
    daddr, dport = split_endpoint(dst)
    proto = _PROTO_NUMBERS.get(proto_name)
    if proto is None:
        proto = int(proto_name)
    return PacketRecord(
        time=time,
        five_tuple=FiveTuple(
            proto=proto, saddr=saddr, sport=sport, daddr=daddr, dport=dport
        ),
        size=size,
    )


def dump(trace: Trace, stream: TextIO) -> None:
    """Write a trace to ``stream`` in the text format."""
    if trace.description:
        stream.write(f"# {trace.description}\n")
    for record in trace:
        stream.write(format_record(record) + "\n")


def load(stream: TextIO) -> Trace:
    """Read a trace from ``stream``.

    Raises
    ------
    ValueError
        On a malformed line, naming its line number.
    """
    description = ""
    records = []
    for number, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not description:
                description = line.lstrip("# ")
            continue
        try:
            records.append(parse_line(line))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    trace = Trace(records, description=description)
    trace.sort()
    return trace
