"""Certificate substrate tests."""

import random

import pytest

from repro.core import certificates
from repro.core.certificates import (
    CertificateAuthority,
    CertificateDirectory,
    CertificateError,
    PublicValueCertificate,
)
from repro.core.errors import UnknownPrincipalError
from repro.core.keying import Principal
from repro.crypto.dh import DHPrivateKey, WELL_KNOWN_GROUPS

GROUP = WELL_KNOWN_GROUPS["TEST128"]


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority(random.Random(1))


@pytest.fixture
def bob_key():
    return DHPrivateKey.generate(GROUP, random.Random(2))


@pytest.fixture
def bob_cert(ca, bob_key, monkeypatch):
    monkeypatch.setattr(certificates, "NOT_AFTER", 1e6)
    return ca.issue(Principal.from_name("bob"), bob_key)


class TestIssueVerify:
    def test_issued_cert_verifies(self, ca, bob_cert):
        bob_cert.verify(ca.public_key, now=100.0)

    def test_carries_public_value(self, bob_cert, bob_key):
        assert bob_cert.public_value == bob_key.public
        assert bob_cert.group_name == "TEST128"

    def test_expired_rejected(self, ca, bob_cert):
        with pytest.raises(CertificateError):
            bob_cert.verify(ca.public_key, now=2e6)

    def test_not_yet_valid_rejected(self, ca, bob_key, monkeypatch):
        monkeypatch.setattr(certificates, "NOT_BEFORE", 50.0)
        cert = ca.issue(Principal.from_name("bob"), bob_key)
        with pytest.raises(CertificateError):
            cert.verify(ca.public_key, now=10.0)

    def test_tampered_value_rejected(self, ca, bob_cert):
        forged = PublicValueCertificate(
            subject=bob_cert.subject,
            group_name=bob_cert.group_name,
            public_value=bob_cert.public_value + 1,
            not_before=bob_cert.not_before,
            not_after=bob_cert.not_after,
            signature=bob_cert.signature,
        )
        with pytest.raises(CertificateError):
            forged.verify(ca.public_key, now=100.0)

    def test_tampered_subject_rejected(self, ca, bob_cert):
        forged = PublicValueCertificate(
            subject=Principal.from_name("mallory"),
            group_name=bob_cert.group_name,
            public_value=bob_cert.public_value,
            not_before=bob_cert.not_before,
            not_after=bob_cert.not_after,
            signature=bob_cert.signature,
        )
        with pytest.raises(CertificateError):
            forged.verify(ca.public_key, now=100.0)

    def test_wrong_ca_rejected(self, bob_cert):
        other = CertificateAuthority(random.Random(9))
        with pytest.raises(CertificateError):
            bob_cert.verify(other.public_key, now=100.0)


class TestDirectory:
    def test_publish_fetch(self, bob_cert):
        directory = CertificateDirectory()
        directory.publish(bob_cert)
        assert directory.fetch(bob_cert.subject.wire_id) is bob_cert
        assert directory.fetches == 1

    def test_unknown_principal(self):
        directory = CertificateDirectory()
        with pytest.raises(UnknownPrincipalError):
            directory.fetch(b"\x00\x05ghost")

    def test_republish_replaces(self, ca, bob_key, monkeypatch):
        directory = CertificateDirectory()
        monkeypatch.setattr(certificates, "NOT_AFTER", 10.0)
        old = ca.issue(Principal.from_name("bob"), bob_key)
        monkeypatch.setattr(certificates, "NOT_AFTER", 99.0)
        new = ca.issue(Principal.from_name("bob"), bob_key)
        directory.publish(old)
        directory.publish(new)
        assert directory.fetch(old.subject.wire_id).not_after == 99.0
