"""Baseline datagram-security schemes the paper positions FBS against.

Section 2 classifies existing approaches into *session-based keying*
(KDC/ticket schemes like Kerberos; two-party exchanges like Photuris and
Oakley) and *host-pair keying* (implicit pair master keys, optionally
with per-datagram keys; SKIP).  Section 7.4 compares FBS with SKIP
directly.  Each baseline here is a
:class:`~repro.netsim.host.SecurityModule` installable on a simulated
host, so the benches can run identical workloads over every scheme and
compare:

* setup messages and latency (datagram semantics preserved or not),
* hard vs. soft state,
* per-datagram crypto work, and
* key-compromise blast radius.

Modules (one hook body, a keying rule per scheme; :data:`SCHEMES` is
the install table the benches, attacks and examples go through):

* :mod:`repro.baselines.sealed` -- the ``ip_output``/``ip_input`` body
  every scheme below shares: bypass, seal, open, charge, count.
* :mod:`repro.baselines.generic` -- GENERIC: no security (Figure 8).
* :mod:`repro.baselines.hostpair` -- basic host-pair keying: the
  implicit DH pair key encrypts traffic directly (Section 2.2), plus
  the cut-and-paste weakness that entails.
* :mod:`repro.baselines.perdatagram` -- host-pair keying hardened with
  per-datagram keys from a cryptographically strong (Blum-Blum-Shub)
  generator, with the generator cost the paper warns about.
* :mod:`repro.baselines.kdc` -- KDC/ticket session keying
  (Kerberos-flavoured).
* :mod:`repro.baselines.photuris` -- two-party session key exchange
  (Photuris/Oakley-flavoured).
* :mod:`repro.baselines.skip` -- SKIP-style zero-message *host* keying
  (Section 7.4's comparison point).
"""

from typing import Callable, Dict, List, Sequence

from repro.baselines.generic import GenericNull
from repro.baselines.hostpair import HostPairKeying
from repro.baselines.perdatagram import PerDatagramHostPair
from repro.baselines.kdc import KeyDistributionCenter, KdcSessionKeying
from repro.baselines.photuris import PhoturisSessionKeying
from repro.baselines.skip import SkipHostKeying
from repro.core.deploy import FBSDomain
from repro.core.keying import Principal
from repro.netsim.host import Host, SecurityModule

__all__ = [
    "GenericNull",
    "HostPairKeying",
    "PerDatagramHostPair",
    "KeyDistributionCenter",
    "KdcSessionKeying",
    "PhoturisSessionKeying",
    "SkipHostKeying",
    "SCHEMES",
    "install_scheme",
]

Builder = Callable[[Sequence[Host], int], List[SecurityModule]]


def _pair_keyed(scheme, **options) -> Builder:
    """A scheme on the FBS certificate substrate: one domain, and each
    host's master key daemon handed to ``scheme``."""

    def build(hosts, seed):
        domain = FBSDomain(seed=seed)
        mkds = [domain.enroll_principal(Principal.from_ip(h.address)) for h in hosts]
        return [scheme(host, mkd, **options) for host, mkd in zip(hosts, mkds)]

    return build


def _fbs(hosts, seed):
    domain = FBSDomain(seed=seed)
    return [domain.enroll_host(host, encrypt_all=True) for host in hosts]


def _kdc(hosts, seed):
    kdc = KeyDistributionCenter(seed=seed)
    return [KdcSessionKeying(host, kdc) for host in hosts]


def _photuris(hosts, seed):
    registry: dict = {}
    return [
        PhoturisSessionKeying(host, registry, dh_private_seed=seed + i)
        for i, host in enumerate(hosts)
    ]


#: Every scheme the benches, attacks and examples can run a workload
#: over, by name: what shared infrastructure it needs (a certificate
#: domain, a KDC, a rendezvous registry) and how each host's module is
#: built from it.
SCHEMES: Dict[str, Builder] = {
    "generic": lambda hosts, seed: [GenericNull() for _ in hosts],
    "fbs": _fbs,
    "host-pair": _pair_keyed(HostPairKeying),
    "host-pair-mac": _pair_keyed(HostPairKeying, include_mac=True),
    "host-pair-per-datagram": _pair_keyed(PerDatagramHostPair),
    "skip": _pair_keyed(SkipHostKeying),
    "kdc-session": _kdc,
    "photuris-session": _photuris,
}


def install_scheme(name: str, hosts: Sequence[Host], seed: int) -> List[SecurityModule]:
    """Install scheme ``name`` on ``hosts``; their modules, in order."""
    if name not in SCHEMES:
        raise ValueError(f"unknown scheme {name!r}")
    modules = SCHEMES[name](hosts, seed)
    for host, module in zip(hosts, modules):
        host.install_security(module)
    return modules
