"""Tests for the simulated TLS layer: handshake, auth, record security."""

import hashlib
import os
import random
import subprocess
import sys

import pytest

from repro.doh.tls import (
    Certificate,
    CertificateAuthority,
    KeyPair,
    TlsClientConnection,
    TlsError,
    TlsServer,
    TrustStore,
    _open,
    _seal,
)
from repro.netsim.address import Endpoint, ip
from repro.netsim.host import Host
from repro.netsim.internet import Internet, TapAction
from repro.netsim.link import LinkProfile
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Topology
from repro.util.rng import RngRegistry


def make_rng(seed=0):
    return random.Random(seed)


class FixedDraw:
    """An rng stand-in whose ``randrange`` returns one chosen value."""

    def __init__(self, value):
        self._value = value

    def randrange(self, start, stop):
        assert start <= self._value < stop
        return self._value


class TestKeyPair:
    def test_shared_secret_agreement(self):
        a = KeyPair.generate(make_rng(1))
        b = KeyPair.generate(make_rng(2))
        assert a.shared_secret(b.public) == b.shared_secret(a.public)

    def test_different_peers_different_secrets(self):
        a = KeyPair.generate(make_rng(1))
        b = KeyPair.generate(make_rng(2))
        c = KeyPair.generate(make_rng(3))
        assert a.shared_secret(b.public) != a.shared_secret(c.public)

    def test_out_of_range_public_rejected(self):
        a = KeyPair.generate(make_rng(1))
        with pytest.raises(TlsError):
            a.shared_secret(1)

    def test_openssl_modexp_matches_pow(self):
        """OpenSSL computes both exponentiations; pow() is the reference.
        Public values and shared secrets must match it exactly, on edge
        exponents, on random secrets either side of q, and on edge
        peers (OpenSSL makes no subgroup check, so p - 2 is accepted)."""
        from repro.doh.tls import DH_GENERATOR, DH_PRIME
        q = (DH_PRIME - 1) // 2
        rng = make_rng(99)
        secrets = [2, 3, q - 1, q + 1, DH_PRIME - 3]
        secrets += [rng.randrange(2, q) for _ in range(3)]
        secrets += [rng.randrange(q + 1, DH_PRIME - 2) for _ in range(3)]
        peers = [2, 3, q, DH_PRIME - 2]
        for secret in secrets:
            drawn = KeyPair.generate(FixedDraw(secret))
            assert drawn.secret == secret
            assert drawn.public == pow(DH_GENERATOR, secret, DH_PRIME)
            for peer in peers:
                expected = pow(peer, secret, DH_PRIME).to_bytes(256, "big")
                assert drawn.shared_secret(peer) == hashlib.sha256(
                    expected).digest()

    def test_secret_of_order_q_raises_tls_error(self):
        """OpenSSL refuses the shared value 1 or p - 1 that a secret of
        q yields; the check must surface as TlsError, not a panic."""
        from repro.doh.tls import DH_PRIME
        q = (DH_PRIME - 1) // 2
        with pytest.raises(TlsError):
            KeyPair(secret=q, public=2).shared_secret(3)

    def test_generate_public_matches_direct_pow(self):
        pair = KeyPair.generate(make_rng(7))
        from repro.doh.tls import DH_GENERATOR, DH_PRIME
        assert pair.public == pow(DH_GENERATOR, pair.secret, DH_PRIME)


def test_plain_dns_world_never_imports_cryptography():
    """``cryptography`` loads on the first DH exchange. A population
    world whose providers serve plain DNS mints no keys, so building
    and running it must leave the package (and its RSS) out."""
    import repro
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys\n"
        "from repro.scenarios.spec import materialize, population_spec, "
        "set_path\n"
        "spec = set_path(population_spec(num_clients=4, rounds=2), "
        "'provider.serve', 'dns')\n"
        "outcomes = materialize(spec, 3).run()\n"
        "assert outcomes.rounds_ok == outcomes.rounds > 0, outcomes\n"
        "loaded = sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'cryptography')\n"
        "assert not loaded, loaded\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class TestCertificates:
    def test_issue_and_verify(self):
        ca = CertificateAuthority("Test CA", make_rng(1))
        key = KeyPair.generate(make_rng(2))
        cert = ca.issue("dns.example", key.public)
        store = TrustStore([ca])
        assert store.verify(cert, "dns.example")

    def test_wrong_subject_rejected(self):
        ca = CertificateAuthority("Test CA", make_rng(1))
        key = KeyPair.generate(make_rng(2))
        cert = ca.issue("dns.example", key.public)
        assert not TrustStore([ca]).verify(cert, "other.example")

    def test_untrusted_issuer_rejected(self):
        good_ca = CertificateAuthority("Good CA", make_rng(1))
        evil_ca = CertificateAuthority("Evil CA", make_rng(9))
        key = KeyPair.generate(make_rng(2))
        cert = evil_ca.issue("dns.example", key.public)
        assert not TrustStore([good_ca]).verify(cert, "dns.example")

    def test_forged_certificate_rejected(self):
        """A hand-built certificate claiming a trusted issuer fails."""
        ca = CertificateAuthority("Test CA", make_rng(1))
        attacker_key = KeyPair.generate(make_rng(66))
        forged = Certificate(subject="dns.example", issuer="Test CA",
                             public_key=attacker_key.public, serial=77,
                             signature=b"\x00" * 32)
        assert not TrustStore([ca]).verify(forged, "dns.example")

    def test_revocation(self):
        ca = CertificateAuthority("Test CA", make_rng(1))
        key = KeyPair.generate(make_rng(2))
        cert = ca.issue("dns.example", key.public)
        store = TrustStore([ca])
        ca.revoke(cert)
        assert not store.verify(cert, "dns.example")

    def test_certificate_wire_roundtrip(self):
        ca = CertificateAuthority("Test CA", make_rng(1))
        key = KeyPair.generate(make_rng(2))
        cert = ca.issue("dns.example", key.public)
        decoded, consumed = Certificate.decode(cert.encode() + b"extra")
        assert decoded == cert
        assert consumed == len(cert.encode())

    def test_truncated_certificate_raises(self):
        with pytest.raises(TlsError):
            Certificate.decode(b"\x00\x05ab")


class TestRecordProtection:
    def test_seal_open_roundtrip(self):
        key = b"k" * 32
        sealed = _seal(key, b"c2s", 7, 0, b"payload")
        assert _open(key, b"c2s", 7, 0, sealed) == b"payload"

    def test_wrong_key_fails(self):
        sealed = _seal(b"k" * 32, b"c2s", 7, 0, b"payload")
        assert _open(b"x" * 32, b"c2s", 7, 0, sealed) is None

    def test_wrong_seq_fails_replay(self):
        key = b"k" * 32
        sealed = _seal(key, b"c2s", 7, 0, b"payload")
        assert _open(key, b"c2s", 7, 1, sealed) is None

    def test_wrong_direction_fails_reflection(self):
        key = b"k" * 32
        sealed = _seal(key, b"c2s", 7, 0, b"payload")
        assert _open(key, b"s2c", 7, 0, sealed) is None

    def test_tampered_ciphertext_fails(self):
        key = b"k" * 32
        sealed = bytearray(_seal(key, b"c2s", 7, 0, b"payload"))
        sealed[0] ^= 0xFF
        assert _open(key, b"c2s", 7, 0, bytes(sealed)) is None

    def test_short_record_fails(self):
        assert _open(b"k" * 32, b"c2s", 7, 0, b"short") is None

    def test_ciphertext_differs_from_plaintext(self):
        sealed = _seal(b"k" * 32, b"c2s", 7, 0, b"payload")
        assert b"payload" not in sealed


def build_tls_world():
    """Client and server hosts joined by one link, with a CA."""
    registry = RngRegistry(5)
    simulator = Simulator()
    topology = Topology(registry)
    topology.add_link("left", "right", LinkProfile(latency=0.01))
    internet = Internet(simulator, topology, registry)
    client_host = internet.add_host(Host("client", "left", [ip("10.0.0.1")]))
    server_host = internet.add_host(Host("server", "right", [ip("10.0.0.2")]))
    ca = CertificateAuthority("Test CA", registry.stream("ca"))
    server_key = KeyPair.generate(registry.stream("server-key"))
    cert = ca.issue("dns.example", server_key.public)
    return (simulator, internet, client_host, server_host, ca, cert,
            server_key, registry)


class TestHandshakeAndData:
    def test_echo_roundtrip(self):
        sim, net, client_host, server_host, ca, cert, key, reg = build_tls_world()
        server = TlsServer(server_host, 443, cert, key)
        server.on_data(lambda sid, data, reply: reply(b"echo:" + data))

        received = []
        conn = TlsClientConnection(client_host, Endpoint(ip("10.0.0.2"), 443),
                                   "dns.example", TrustStore([ca]),
                                   reg.stream("client"))
        conn.on_established(lambda: conn.send(b"hello"))
        conn.on_data(received.append)
        conn.connect()
        sim.run()
        assert received == [b"echo:hello"]
        assert server.handshakes_completed == 1

    def test_multiple_records_in_order(self):
        sim, net, client_host, server_host, ca, cert, key, reg = build_tls_world()
        server = TlsServer(server_host, 443, cert, key)
        server.on_data(lambda sid, data, reply: reply(data.upper()))
        received = []
        conn = TlsClientConnection(client_host, Endpoint(ip("10.0.0.2"), 443),
                                   "dns.example", TrustStore([ca]),
                                   reg.stream("client"))

        def send_all():
            conn.send(b"one")
            conn.send(b"two")
            conn.send(b"three")

        conn.on_established(send_all)
        conn.on_data(received.append)
        conn.connect()
        sim.run()
        assert received == [b"ONE", b"TWO", b"THREE"]

    def test_wrong_name_certificate_fails_handshake(self):
        sim, net, client_host, server_host, ca, cert, key, reg = build_tls_world()
        TlsServer(server_host, 443, cert, key)
        failures = []
        conn = TlsClientConnection(client_host, Endpoint(ip("10.0.0.2"), 443),
                                   "dns.other", TrustStore([ca]),
                                   reg.stream("client"))
        conn.on_failure(failures.append)
        conn.connect()
        sim.run()
        assert len(failures) == 1
        assert "verification failed" in failures[0]
        assert not conn.established

    def test_untrusted_ca_fails_handshake(self):
        sim, net, client_host, server_host, ca, cert, key, reg = build_tls_world()
        TlsServer(server_host, 443, cert, key)
        other_ca = CertificateAuthority("Other CA", reg.stream("other-ca"))
        failures = []
        conn = TlsClientConnection(client_host, Endpoint(ip("10.0.0.2"), 443),
                                   "dns.example", TrustStore([other_ca]),
                                   reg.stream("client"))
        conn.on_failure(failures.append)
        conn.connect()
        sim.run()
        assert len(failures) == 1

    def test_mismatched_cert_keypair_rejected_at_server(self):
        sim, net, client_host, server_host, ca, cert, key, reg = build_tls_world()
        wrong_key = KeyPair.generate(reg.stream("wrong"))
        with pytest.raises(TlsError):
            TlsServer(server_host, 443, cert, wrong_key)

    def test_onpath_tamper_is_dropped_not_decrypted(self):
        """An attacker flipping ciphertext bits cannot alter plaintext —
        the record just fails its MAC and is dropped."""
        sim, net, client_host, server_host, ca, cert, key, reg = build_tls_world()
        server = TlsServer(server_host, 443, cert, key)
        server.on_data(lambda sid, data, reply: reply(b"echo:" + data))

        def corrupt_data_records(link, datagram):
            if datagram.payload and datagram.payload[0] == 3:  # data record
                mangled = bytearray(datagram.payload)
                mangled[-1] ^= 0xFF
                return TapAction.rewrite(bytes(mangled))
            return TapAction.passthrough()

        net.add_tap("left--right", corrupt_data_records)
        received = []
        conn = TlsClientConnection(client_host, Endpoint(ip("10.0.0.2"), 443),
                                   "dns.example", TrustStore([ca]),
                                   reg.stream("client"))
        conn.on_established(lambda: conn.send(b"hello"))
        conn.on_data(received.append)
        conn.connect()
        sim.run()
        assert received == []
        assert server.records_rejected >= 1

    def test_onpath_observer_sees_no_plaintext(self):
        sim, net, client_host, server_host, ca, cert, key, reg = build_tls_world()
        server = TlsServer(server_host, 443, cert, key)
        server.on_data(lambda sid, data, reply: reply(b"SECRET-RESPONSE"))
        observed = []

        def observe(link, datagram):
            observed.append(datagram.payload)
            return TapAction.passthrough()

        net.add_tap("left--right", observe)
        received = []
        conn = TlsClientConnection(client_host, Endpoint(ip("10.0.0.2"), 443),
                                   "dns.example", TrustStore([ca]),
                                   reg.stream("client"))
        conn.on_established(lambda: conn.send(b"SECRET-REQUEST"))
        conn.on_data(received.append)
        conn.connect()
        sim.run()
        assert received == [b"SECRET-RESPONSE"]
        joined = b"".join(observed)
        assert b"SECRET-REQUEST" not in joined
        assert b"SECRET-RESPONSE" not in joined

    def test_mitm_with_own_key_and_genuine_cert_fails_confirmation(self):
        """An on-path attacker replaying the genuine certificate cannot
        complete the handshake without the server's private key."""
        import struct as structlib
        sim, net, client_host, server_host, ca, cert, key, reg = build_tls_world()
        TlsServer(server_host, 443, cert, key)
        failures = []

        def impersonate(link, datagram):
            # Replace ServerHello's key confirmation with garbage, as an
            # attacker who does not know the session key would have to.
            if datagram.payload and datagram.payload[0] == 2:
                mangled = datagram.payload[:-32] + b"\x00" * 32
                return TapAction.rewrite(mangled)
            return TapAction.passthrough()

        net.add_tap("left--right", impersonate)
        conn = TlsClientConnection(client_host, Endpoint(ip("10.0.0.2"), 443),
                                   "dns.example", TrustStore([ca]),
                                   reg.stream("client"))
        conn.on_failure(failures.append)
        conn.connect()
        sim.run()
        assert failures == ["server failed key confirmation"]

    def test_send_before_established_raises(self):
        sim, net, client_host, server_host, ca, cert, key, reg = build_tls_world()
        conn = TlsClientConnection(client_host, Endpoint(ip("10.0.0.2"), 443),
                                   "dns.example", TrustStore([ca]),
                                   reg.stream("client"))
        with pytest.raises(TlsError):
            conn.send(b"too early")

    def test_offpath_injection_rejected(self):
        """Off-path forged data records fail the MAC and are counted."""
        from repro.netsim.packet import Datagram
        import struct as structlib
        sim, net, client_host, server_host, ca, cert, key, reg = build_tls_world()
        server = TlsServer(server_host, 443, cert, key)
        server.on_data(lambda sid, data, reply: None)
        conn = TlsClientConnection(client_host, Endpoint(ip("10.0.0.2"), 443),
                                   "dns.example", TrustStore([ca]),
                                   reg.stream("client"))
        conn.connect()
        sim.run()
        assert conn.established
        # Attacker forges a data record to the server for this session.
        forged_record = (structlib.pack("!BQ", 3, conn.session_id)
                         + b"\x00" * 64)
        forged = Datagram(
            src=Endpoint(ip("10.0.0.1"), 50000),
            dst=Endpoint(ip("10.0.0.2"), 443),
            payload=forged_record)
        net.inject(forged, at_node="left")
        sim.run()
        assert server.records_rejected >= 1
