"""Master key daemon tests: upcalls, caching, verification, rekeying."""

import dataclasses
import random

import pytest

from repro.core import certificates
from repro.core.certificates import (
    CertificateAuthority,
    CertificateDirectory,
    CertificateError,
)
from repro.core.deploy import FBSDomain
from repro.core.errors import FBSError
from repro.core.keying import Principal
from repro.core.mkd import MasterKeyDaemon
from repro.crypto.dh import DHPrivateKey, WELL_KNOWN_GROUPS

GROUP = WELL_KNOWN_GROUPS["TEST128"]


def make_world(seed=0, **mkd_kwargs):
    rng = random.Random(seed)
    ca = CertificateAuthority(rng)
    directory = CertificateDirectory()
    daemons = {}
    keys = {}
    for name in ("alice", "bob", "carol"):
        principal = Principal.from_name(name)
        key = DHPrivateKey.generate(GROUP, rng)
        keys[name] = key
        directory.publish(ca.issue(principal, key))
        daemons[name] = MasterKeyDaemon(
            principal=principal,
            private_key=key,
            ca_public=ca.public_key,
            fetch=directory.fetch,
            now=lambda: 100.0,
            **mkd_kwargs,
        )
    return ca, directory, daemons, keys


class TestMasterKeys:
    def test_pair_symmetry(self):
        _, _, daemons, _ = make_world()
        k_ab = daemons["alice"].master_key(Principal.from_name("bob"))
        k_ba = daemons["bob"].master_key(Principal.from_name("alice"))
        assert k_ab.reveal() == k_ba.reveal()

    def test_pairs_are_distinct(self):
        _, _, daemons, _ = make_world()
        alice = daemons["alice"]
        assert alice.master_key(Principal.from_name("bob")).reveal() != alice.master_key(
            Principal.from_name("carol")
        ).reveal()

    def test_caching_avoids_recomputation(self):
        _, directory, daemons, _ = make_world()
        alice = daemons["alice"]
        bob = Principal.from_name("bob")
        alice.master_key(bob)
        alice.master_key(bob)
        assert alice.master_keys_computed == 1
        assert alice.certificate_fetches == 1
        assert directory.fetches == 1

    def test_upcall_counts(self):
        _, _, daemons, _ = make_world()
        alice = daemons["alice"]
        alice.upcall_master_key(Principal.from_name("bob"))
        alice.upcall_master_key(Principal.from_name("bob"))
        assert alice.master_keys_computed == 1


class TestVerification:
    def test_wrong_subject_from_directory_rejected(self):
        ca, directory, daemons, keys = make_world()
        alice = daemons["alice"]
        evil = Principal.from_name("bob")
        # Sabotage the directory: return carol's cert for bob.
        carol_cert = directory.fetch(Principal.from_name("carol").wire_id)
        directory._certs[evil.wire_id] = carol_cert
        with pytest.raises(CertificateError):
            alice.master_key(evil)
        assert alice.verification_failures == 1

    def test_expired_certificate_rejected(self, monkeypatch):
        rng = random.Random(3)
        ca = CertificateAuthority(rng)
        directory = CertificateDirectory()
        bob_p = Principal.from_name("bob")
        bob_key = DHPrivateKey.generate(GROUP, rng)
        monkeypatch.setattr(certificates, "NOT_AFTER", 50.0)
        directory.publish(ca.issue(bob_p, bob_key))
        alice = MasterKeyDaemon(
            principal=Principal.from_name("alice"),
            private_key=DHPrivateKey.generate(GROUP, rng),
            ca_public=ca.public_key,
            fetch=directory.fetch,
            now=lambda: 100.0,  # past bob's expiry
        )
        with pytest.raises(CertificateError):
            alice.master_key(bob_p)


def recertify(ca, directory, principal, **fields):
    """Publish a CA-signed certificate for ``principal`` with ``fields``
    replaced: the signature is good, the content is not."""
    forged = dataclasses.replace(
        directory.fetch(principal.wire_id), signature=b"", **fields
    )
    signature = ca._keypair.sign(forged.to_be_signed())
    directory.publish(dataclasses.replace(forged, signature=signature))


#: What a certificate can carry under a valid signature that must still
#: never reach the modexp: degenerate or out-of-range values, and a value
#: over another group than the local private value's.
UNUSABLE = [
    pytest.param({"public_value": 0}, id="zero"),
    pytest.param({"public_value": 1}, id="one"),
    pytest.param({"public_value": GROUP.p - 1}, id="p-minus-one"),
    pytest.param({"public_value": GROUP.p + 5}, id="out-of-range"),
    pytest.param({"group_name": "TEST256"}, id="other-group"),
]


class TestCertifiedButUnusablePublicValues:
    @pytest.mark.parametrize("fields", UNUSABLE)
    def test_refused_like_a_bad_signature_before_the_modexp(self, fields):
        charged = []
        ca, directory, daemons, _ = make_world(
            charge=charged.append, modexp_cost=0.06
        )
        alice = daemons["alice"]
        bob, carol = Principal.from_name("bob"), Principal.from_name("carol")
        alice.master_key(carol)
        recertify(ca, directory, bob, **fields)
        with pytest.raises(CertificateError):
            alice.master_key(bob)
        assert alice.verification_failures == 1
        assert alice.master_keys_computed == 1  # carol's only
        assert charged.count(0.06) == 1
        assert len(alice.pvc) == 0  # flushed, carol's entry included
        assert alice.mkc.lookup(bob.wire_id) is None

    @pytest.mark.parametrize("fields", UNUSABLE)
    def test_both_sides_of_an_endpoint_pair_reject_as_keying(self, fields):
        domain = FBSDomain(seed=3, group=GROUP)
        a, b = Principal.from_name("alice"), Principal.from_name("bob")
        alice, bob = domain.make_endpoint(a), domain.make_endpoint(b)
        wire = alice.protect(b"sent before the directory went bad", b)
        recertify(domain.ca, domain.directory, a, **fields)
        # Receive side: a rejection with a reason, not an exception.
        result = bob.unprotect_batch((wire,), a)
        assert result.reasons == ["keying"] and result.bodies == [None]
        assert isinstance(result.errors[0], CertificateError)
        assert bob.registry.counter("datagrams_rejected", reason="keying").value == 1
        assert bob.mkd.verification_failures == 1
        # Send side: the protocol's own error type, and no flow key.
        assert issubclass(CertificateError, FBSError)
        with pytest.raises(CertificateError):
            bob.protect(b"reply", a)
        assert bob.registry.counter("flow_key_derivations", side="send").value == 0
        assert bob.mkd.master_keys_computed == 0


class TestCostAccounting:
    def test_costs_charged_on_misses_only(self):
        rng = random.Random(4)
        ca = CertificateAuthority(rng)
        directory = CertificateDirectory()
        bob_p = Principal.from_name("bob")
        directory.publish(ca.issue(bob_p, DHPrivateKey.generate(GROUP, rng)))
        charged = []
        alice = MasterKeyDaemon(
            principal=Principal.from_name("alice"),
            private_key=DHPrivateKey.generate(GROUP, rng),
            ca_public=ca.public_key,
            fetch=directory.fetch,
            charge=charged.append,
            modexp_cost=0.06,
            fetch_cost=0.02,
            upcall_cost=0.0005,
        )
        alice.upcall_master_key(bob_p)
        assert 0.06 in charged and 0.02 in charged and 0.0005 in charged
        charged.clear()
        alice.upcall_master_key(bob_p)
        # Warm path: only the upcall crossing.
        assert charged == [0.0005]


class TestRekeying:
    def test_private_value_change_flushes_mkc(self):
        _, _, daemons, keys = make_world()
        alice = daemons["alice"]
        bob = Principal.from_name("bob")
        old = alice.master_key(bob)
        new_key = DHPrivateKey.generate(GROUP, random.Random(77))
        alice.change_private_value(new_key)
        new = alice.master_key(bob)
        assert new.reveal() != old.reveal()
        assert alice.master_keys_computed == 2

    def test_pinned_certificate_skips_fetch(self):
        _, directory, daemons, _ = make_world()
        alice = daemons["alice"]
        bob_cert = directory.fetch(Principal.from_name("bob").wire_id)
        directory.fetches = 0
        alice.pin_certificate(bob_cert)
        alice.master_key(Principal.from_name("bob"))
        assert directory.fetches == 0
        assert alice.certificate_fetches == 0
