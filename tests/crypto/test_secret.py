"""The ``Secret`` contract, for every key the code produces.

Every key producer -- FBS's ``K_{S,D}``, ``K_f`` and its two subkeys,
the DH agreement, the one derivation helper, and each baseline's
host-pair, SKIP, KDC, Photuris and per-datagram keys -- returns a
:class:`~repro.crypto.secret.Secret`.  Each cell takes one producer's
key and one operation that would turn it into something printable or
comparable, and the operation must raise; one more cell per producer
shows what rendering gives: ``<secret>`` and nothing else.
(SKIP's ``K_ij`` is the master key daemon's ``master_key``.)
"""

import copy
import functools
import logging
import pickle
import random
import struct

import numpy as np
import pytest

from repro.baselines import install_scheme
from repro.core.config import AlgorithmSuite
from repro.core.deploy import FBSDomain
from repro.core.keying import KeyDerivation, Principal
from repro.crypto.des import DES
from repro.crypto.dh import WELL_KNOWN_GROUPS, DHPrivateKey
from repro.crypto.mac import keyed_md5
from repro.crypto.secret import Secret, derive_key, reveal
from repro.netsim import Network
from repro.netsim.ipv4 import IPProtocol, IPv4Header, IPv4Packet


def _hosts(seed):
    net = Network(seed=seed)
    net.add_segment("lan", "10.0.0.0")
    return net.add_host("a", segment="lan"), net.add_host("b", segment="lan")


def _packet(src, dst):
    return IPv4Packet(header=IPv4Header(src=src, dst=dst, proto=IPProtocol.UDP), payload=b"x")


def _scheme(name, seed=3):
    """``(sender module, receiver module, a->b packet)`` for ``name``."""
    a, b = _hosts(seed)
    module_a, module_b = install_scheme(name, (a, b), seed)
    return module_a, module_b, _packet(a.address, b.address)


def _sent_and_received(name, index=0):
    """The key ``name``'s sender used on one datagram, and the one its
    receiver recovered from the datagram's prefix."""
    sender, receiver, packet = _scheme(name)
    prefix, keys = sender.send_keys(packet)
    return keys[index], receiver.receive_keys(packet, prefix)[index]


def _fbs():
    suite = AlgorithmSuite()
    domain = FBSDomain(seed=4)
    alice, bob = Principal.from_name("alice"), Principal.from_name("bob")
    mkd = domain.enroll_principal(alice)
    domain.enroll_principal(bob)
    master = mkd.master_key(bob)
    flow_key = KeyDerivation(suite).flow_key(9, master, alice, bob)
    return master, flow_key


def _agree():
    rng = random.Random(6)
    group = WELL_KNOWN_GROUPS["TEST128"]
    own, peer = DHPrivateKey.generate(group, rng), DHPrivateKey.generate(group, rng)
    return own.agree(peer.public)


def _kdc():
    sender, receiver, packet = _scheme("kdc-session")
    issued, ticket = sender.kdc.issue(packet.header.src, packet.header.dst, expiry=10 ** 6)
    return sender.secret, issued, receiver.receive_keys(packet, ticket)[0]


def _ip_mapping():
    sender, receiver, packet = _scheme("fbs")
    return receiver.receive_keys(packet, struct.pack(">Q", 5))


def _skip_interval_key():
    sender, _, packet = _scheme("skip")
    return sender.interval_key(Principal.from_ip(packet.header.dst), 0)


#: producer -> how to make one of its keys.
PRODUCERS = {
    "KeyDerivation.flow_key": lambda: _fbs()[1],
    "KeyDerivation.encryption_key": lambda: KeyDerivation.encryption_key(_fbs()[1]),
    "KeyDerivation.mac_key": lambda: KeyDerivation.mac_key(_fbs()[1]),
    "MasterKeyDaemon.master_key": lambda: _fbs()[0],
    "DHPrivateKey.agree": _agree,
    "derive_key": lambda: derive_key(b"label", Secret(b"\x07" * 16)),
    "fbs-ip receive cipher key": lambda: _ip_mapping()[0],
    "host-pair cipher key": lambda: _sent_and_received("host-pair")[0],
    "host-pair MAC key": lambda: _sent_and_received("host-pair-mac", 1)[0],
    "skip K_ijn": _skip_interval_key,
    "skip Kp sent": lambda: _sent_and_received("skip")[0],
    "skip Kp received": lambda: _sent_and_received("skip")[1],
    "kdc host secret": lambda: _kdc()[0],
    "kdc session key issued": lambda: _kdc()[1],
    "kdc session key from ticket": lambda: _kdc()[2],
    "photuris session key": lambda: _sent_and_received("photuris-session")[0],
    "per-datagram key sent": lambda: _sent_and_received("host-pair-per-datagram")[0],
    "per-datagram key received": lambda: _sent_and_received("host-pair-per-datagram")[1],
}

#: operation -> what it does to a key; each must raise TypeError.
REFUSED = {
    "==": lambda key: key == key,
    "!=": lambda key: key != b"",
    "hash": hash,
    "bytes": bytes,
    "iter": list,
    "int.from_bytes": lambda key: int.from_bytes(key, "little"),
    "np.frombuffer": lambda key: np.frombuffer(key, dtype=np.uint8),
    "pickle": pickle.dumps,
    "copy": copy.deepcopy,
    "integer index": lambda key: key[0],
}


@functools.lru_cache(maxsize=None)
def produced(producer):
    key = PRODUCERS[producer]()
    assert type(key) is Secret, producer
    return key


@pytest.mark.parametrize("operation", REFUSED)
@pytest.mark.parametrize("producer", PRODUCERS)
def test_a_produced_key_refuses(producer, operation):
    with pytest.raises(TypeError):
        REFUSED[operation](produced(producer))


@pytest.mark.parametrize("producer", PRODUCERS)
def test_a_produced_key_renders_as_secret_only(producer, caplog):
    key = produced(producer)
    with caplog.at_level(logging.DEBUG):
        logging.getLogger("repro").debug("key %s %r", key, key)
    assert {str(key), repr(key), f"{key}", f"{key:>30}", "%s" % (key,)} == {"<secret>"}
    assert caplog.messages == ["key <secret> <secret>"]
    # A slice, the DES subkey shape, is still a Secret, of the right bytes.
    assert type(key[:8]) is Secret and key[:8].reveal() == key.reveal()[:8]


def test_the_coercion_takes_bytes_or_a_secret_and_nothing_else():
    assert reveal(Secret(b"k" * 8)) == reveal(b"k" * 8) == b"k" * 8
    with pytest.raises(TypeError):
        Secret(bytearray(8))


def test_primitives_key_alike_from_a_secret_and_from_bytes():
    raw = bytes(range(16))
    assert DES(Secret(raw[:8])).encrypt_block(b"\0" * 8) == DES(raw[:8]).encrypt_block(b"\0" * 8)
    assert keyed_md5(Secret(raw), b"data") == keyed_md5(raw, b"data")
    assert derive_key(raw, b"n").reveal() == derive_key(Secret(raw), b"n").reveal()
