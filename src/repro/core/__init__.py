"""The FBS protocol: the paper's primary contribution.

This package implements the Flow-Based Security protocol of Sections 4-6
of the paper, deliberately split along the paper's own seams:

* :mod:`repro.core.header` -- the security flow header (Figure 2).
* :mod:`repro.core.flows` -- security flow labels and the flow state
  table (FST).
* :mod:`repro.core.fam` -- the Flow Association Mechanism with pluggable
  mapper and sweeper policy modules (Figure 1).
* :mod:`repro.core.policy` -- concrete policy modules, including the
  5-tuple + THRESHOLD policy of Figure 7.
* :mod:`repro.core.keying` -- zero-message keying: pair-based master
  keys and the flow key derivation K_f = H(sfl | K_{S,D} | S | D).
* :mod:`repro.core.caches` -- the key cache hierarchy (PVC, MKC, TFKC,
  RFKC) with cold/capacity/collision miss accounting (Figure 5).
* :mod:`repro.core.certificates` -- public value certificates and the
  certificate authority (the "distributed certification hierarchy").
* :mod:`repro.core.mkd` -- the master key daemon and its upcall
  interface (Figure 6).
* :mod:`repro.core.timestamps` -- minute-resolution timestamps and the
  sliding freshness window.
* :mod:`repro.core.protocol` -- the abstract FBSSend/FBSReceive engine
  (Figure 4), independent of any protocol layer.
* :mod:`repro.core.ip_mapping` -- the mapping to IP (Section 7),
  including the combined FST/TFKC fast path of Section 7.2.

The abstract protocol (``protocol``) never references IP; the IP mapping
is one instantiation, and the in-memory transport used by the tests is
another -- preserving the paper's layer-independence constraint.
"""

from repro.core.config import FBSConfig, AlgorithmSuite
from repro.core.header import FBSHeader, FBS_HEADER_LEN
from repro.core.flows import SflAllocator, FlowStateTable, FSTEntry
from repro.core.fam import FlowAssociationMechanism
from repro.core.policy import FiveTuplePolicy, HostLevelPolicy, PerDatagramPolicy
from repro.core.keying import KeyDerivation, Principal
from repro.core.caches import (
    AssociativeCache,
    MasterKeyCache,
    PublicValueCache,
    FlowKeyCache,
)
from repro.core.certificates import CertificateAuthority, PublicValueCertificate
from repro.core.mkd import MasterKeyDaemon
from repro.core.timestamps import TimestampCodec, FreshnessWindow
from repro.core.protocol import FBSEndpoint, FBSError, ReceiveError
from repro.core.ip_mapping import FBSIPMapping
from repro.core.app_mapping import ApplicationDirectory, FBSApplication
from repro.core.gateway import FBSGatewayTunnel
from repro.core.replay_guard import DuplicateDatagramError, ReplayGuard

__all__ = [
    "FBSConfig",
    "AlgorithmSuite",
    "FBSHeader",
    "FBS_HEADER_LEN",
    "SflAllocator",
    "FlowStateTable",
    "FSTEntry",
    "FlowAssociationMechanism",
    "FiveTuplePolicy",
    "HostLevelPolicy",
    "PerDatagramPolicy",
    "KeyDerivation",
    "Principal",
    "AssociativeCache",
    "MasterKeyCache",
    "PublicValueCache",
    "FlowKeyCache",
    "CertificateAuthority",
    "PublicValueCertificate",
    "MasterKeyDaemon",
    "TimestampCodec",
    "FreshnessWindow",
    "FBSEndpoint",
    "FBSError",
    "ReceiveError",
    "FBSIPMapping",
    "ApplicationDirectory",
    "FBSApplication",
    "FBSGatewayTunnel",
    "ReplayGuard",
    "DuplicateDatagramError",
]
