"""Reproduction of "A Flow-Based Approach to Datagram Security"
(Mittra & Woo, SIGCOMM 1997).

The package implements the FBS protocol and everything it stands on:

* :mod:`repro.crypto` -- DES, MD5, SHA-1, MACs, Diffie-Hellman, RSA,
  random generators, CRC-32 (all from scratch).
* :mod:`repro.netsim` -- a deterministic discrete-event network
  simulator with a byte-real IPv4 stack, UDP, TCP, and a calibrated
  Pentium-133 cost model (the substitute testbed).
* :mod:`repro.core` -- the FBS protocol: flow association, zero-message
  keying, the security flow header, the key cache hierarchy, and the
  mappings to IP and to application-layer transports.
* :mod:`repro.baselines` -- the keying schemes the paper compares
  against (host-pair, per-datagram, KDC, Photuris, SKIP).
* :mod:`repro.attacks` -- the attack scenarios of Sections 2.2/6/7.1.
* :mod:`repro.traces` -- workload generation and the flow simulation
  programs behind Figures 9-14.
* :mod:`repro.bench` -- the ttcp/rcp measurement harness (Figure 8)
  and the real-clock reads the cost budget (``benchmarks/budget/``,
  the one place a cost is measured) times with.

Most applications need only three things::

    from repro import Network, FBSDomain, UdpSocket

    net = Network(seed=1)
    net.add_segment("lan", "10.0.0.0")
    a, b = net.add_host("a", segment="lan"), net.add_host("b", segment="lan")
    domain = FBSDomain(seed=2)
    domain.enroll_host(a, encrypt_all=True)
    domain.enroll_host(b, encrypt_all=True)
    # ... ordinary sockets; FBS is transparent.
"""

from repro.core.config import AlgorithmSuite, FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.ip_mapping import FBSIPMapping
from repro.core.keying import Principal
from repro.core.protocol import FBSEndpoint
from repro.netsim.network import Network
from repro.netsim.sockets import TcpClient, TcpServer, UdpSocket

__version__ = "1.0.0"

__all__ = [
    "AlgorithmSuite",
    "FBSConfig",
    "FBSDomain",
    "FBSIPMapping",
    "FBSEndpoint",
    "Principal",
    "Network",
    "UdpSocket",
    "TcpClient",
    "TcpServer",
    "__version__",
]
