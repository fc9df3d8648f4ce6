"""Structural gate: an option nobody sets two ways stays a constant.

A census of the values every consumer passes to ``src/``'s options
(EXPERIMENTS.md "Options by consumers") found these options only ever
receiving their default, and these attributes stored but never read.
They went; the code paths only their other values selected went with
them.  ``inspect.signature`` and ``dataclasses.fields`` keep them gone.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

from repro.baselines.hostpair import HostPairKeying
from repro.baselines.kdc import KdcSessionKeying
from repro.baselines.perdatagram import PerDatagramHostPair
from repro.baselines.photuris import PhoturisSessionKeying
from repro.baselines.sealed import SealedDatagramModule
from repro.baselines.skip import SkipHostKeying
from repro.core.app_mapping import FBSApplication
from repro.core.certificates import CertificateAuthority
from repro.core.deploy import FBSDomain
from repro.core.fam import FlowAssociationMechanism
from repro.core.gateway import FBSGatewayTunnel
from repro.core.ip_mapping import FBSIPMapping
from repro.core.keying import Principal
from repro.core.replay_guard import ReplayGuard
from repro.core.timestamps import TimestampCodec
from repro.gateway.admission import DROP_REASONS
from repro.gateway.tenants import GatewayConfig, TenantState
from repro.load import cli as load_cli
from repro.load.worker import WorkerSpec
from repro.netsim import Network
from repro.netsim.clock import Simulator
from repro.netsim.sockets import TcpClient, TcpServer
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.sinks import JsonlSink
from repro.transport import channel
from repro.transport.channel import SecureChannel, channel_pair
from repro.transport.runner import build_netsim_channels, build_udp_channels, run_echo
from repro.transport.udp import UdpTransportConfig

#: callable -> the parameters the census retired from it.
RETIRED_PARAMETERS = [
    (FBSIPMapping, {"secret_policy", "apply_tcp_fix", "bypass_ports"}),
    (FBSGatewayTunnel, {"per_conversation"}),
    (FBSDomain, {"ca_key_bits"}),
    (FBSDomain.enroll_host, {"config"}),
    (FBSDomain.enroll_gateway, {"config", "per_conversation"}),
    (CertificateAuthority, {"key_bits", "name"}),
    (CertificateAuthority.issue, {"not_before", "not_after"}),
    (FlowAssociationMechanism, {"sweeper", "sweep_interval"}),
    (FBSApplication, {"secret_by_default"}),
    (ReplayGuard, {"window"}),
    (SealedDatagramModule, {"bypass_ports"}),
    (HostPairKeying, {"bypass_ports"}),
    (KdcSessionKeying, {"bypass_ports", "kdc_rtt", "ticket_lifetime"}),
    (PerDatagramHostPair, {"bypass_ports", "bbs_bits"}),
    (PhoturisSessionKeying, {"bypass_ports", "rtt", "exchange_rtts", "modexp_cost"}),
    (SkipHostKeying, {"bypass_ports", "key_interval"}),
    (TenantState, {"now"}),
    (run_echo, {"retry", "transport_config"}),
    (build_netsim_channels, {"retry"}),
    (build_udp_channels, {"retry", "transport_config"}),
    (channel_pair, {"retry", "secret"}),
    (SecureChannel, {"retry", "secret"}),
    (SecureChannel.request, {"retry"}),
    (JsonlSink, {"tags"}),
    (Histogram, {"buckets"}),
    (MetricsRegistry.histogram, {"buckets"}),
]

#: dataclass -> the fields the census retired from it.
RETIRED_FIELDS = [
    (GatewayConfig, {"evict_cold"}),
    (WorkerSpec, {"threshold", "cache_size", "vectorize", "transport"}),
    (UdpTransportConfig, {"recv_timeout", "close_timeout"}),
    (TimestampCodec, {"epoch_offset"}),
]


@pytest.mark.parametrize(
    "target,retired", RETIRED_PARAMETERS, ids=[t.__qualname__ for t, _ in RETIRED_PARAMETERS]
)
def test_a_single_valued_parameter_is_gone(target, retired):
    assert not retired & set(inspect.signature(target).parameters)


@pytest.mark.parametrize(
    "cls,retired", RETIRED_FIELDS, ids=[c.__name__ for c, _ in RETIRED_FIELDS]
)
def test_a_single_valued_field_is_gone(cls, retired):
    assert not retired & {field.name for field in dataclasses.fields(cls)}


#: package -> a holder of options retired whole, with every option it had.
RETIRED_HOLDERS = [("repro.load", "LoadSpec"), ("repro.transport", "NetsimHop")]


@pytest.mark.parametrize("package,name", RETIRED_HOLDERS, ids=[n for _, n in RETIRED_HOLDERS])
def test_a_retired_holder_of_options_is_gone(package, name):
    path = importlib.import_module(package).__path__
    modules = [package] + [
        f"{package}.{m.name}" for m in pkgutil.iter_modules(path) if m.name != "__main__"
    ]
    assert [m for m in modules if hasattr(importlib.import_module(m), name)] == []


def test_the_retry_policy_is_one_schedule_of_constants():
    assert not hasattr(channel, "RetryPolicy")
    assert (channel.BACKOFF_INITIAL, channel.BACKOFF_CAP) == (0.05, 1.0)
    assert (channel.BACKOFF_JITTER, channel.ATTEMPTS) == (0.5, 8)


def test_the_load_cli_has_no_no_vectorize_flag():
    flags = {f for action in load_cli._build_parser()._actions for f in action.option_strings}
    assert "--no-vectorize" not in flags


def test_admission_is_no_drop_reason():
    # Only ``evict_cold=False`` ever produced ``dropped:admission``.
    assert "admission" not in DROP_REASONS


def test_the_attributes_nothing_read_are_gone():
    net = Network(seed=0)
    net.add_segment("lan", "10.0.0.0")
    a, b = net.add_host("a", segment="lan"), net.add_host("b", segment="lan")
    domain = FBSDomain(seed=0)
    stored = [
        (ReplayGuard(1, 120.0), "duplicates_rejected"),
        (Simulator(), "_running"),
        (TcpClient(a, b.address, 9000).conn, "bytes_received"),
        (a.tcp, "segments_sent"),
        (a.udp, "datagrams_delivered"),
        (FlowAssociationMechanism(mapper=None), "classifications"),
        (domain.enroll_principal(Principal.from_name("p")), "upcalls"),
        (domain.enroll_host(b), "bypassed"),
        (TcpServer(b, 80), "closed_count"),
    ]
    assert [(type(obj).__name__, name) for obj, name in stored if hasattr(obj, name)] == []
    assert "last_active" not in TenantState.__slots__
