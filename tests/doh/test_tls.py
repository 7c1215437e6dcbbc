"""Tests for the simulated TLS layer: handshake, auth, record security."""

import hashlib
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.doh import tls
from repro.doh.tls import (
    DH_PRIME,
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


def cold_shared_secret(pair_secret, peer_public):
    """The shared secret as ``pow()`` computes it, memo or no memo."""
    return hashlib.sha256(
        pow(peer_public, pair_secret, DH_PRIME).to_bytes(256, "big")).digest()


class TestKeyPair:
    def test_shared_secret_agreement(self):
        """Each side derives cold: with the memo left alone, the second
        call would only read the entry the first one wrote."""
        a = KeyPair.generate(make_rng(1))
        b = KeyPair.generate(make_rng(2))
        tls._SHARED_MEMO.clear()
        a_side = a.shared_secret(b.public)
        tls._SHARED_MEMO.clear()
        b_side = b.shared_secret(a.public)
        assert a_side == b_side == cold_shared_secret(a.secret, b.public)

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


_MEMO_PAIRS = [KeyPair.generate(make_rng(seed)) for seed in (11, 12, 13, 14)]
_MEMO_EXPECTED = {(i, j): cold_shared_secret(own.secret, peer.public)
                  for i, own in enumerate(_MEMO_PAIRS)
                  for j, peer in enumerate(_MEMO_PAIRS)}


class TestSharedSecretMemo:
    """Generated pairs share one derivation per handshake; the memo
    must never answer with a value ``pow()`` would not."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(_MEMO_PAIRS) - 1),
                              st.integers(0, len(_MEMO_PAIRS) - 1)),
                    min_size=1, max_size=12))
    def test_any_call_order_matches_pow(self, calls):
        """Server first, client first, repeated, or interleaved with
        other pairs: every derivation equals the cold value."""
        tls._SHARED_MEMO.clear()
        for own, peer in calls:
            assert (_MEMO_PAIRS[own].shared_secret(_MEMO_PAIRS[peer].public)
                    == _MEMO_EXPECTED[own, peer])

    @pytest.mark.parametrize("first", ["owner", "peer"])
    def test_impostor_with_a_generated_public_misses(self, first):
        """A directly built pair claiming S's public value with a wrong
        secret gets its own cold value, whichever entry S's owner or the
        peer C left behind, and leaves that entry in place."""
        server, client = _MEMO_PAIRS[0], _MEMO_PAIRS[1]
        tls._SHARED_MEMO.clear()
        if first == "owner":
            server.shared_secret(client.public)
        else:
            client.shared_secret(server.public)
        left = dict(tls._SHARED_MEMO)
        impostor = KeyPair(secret=server.secret + 1, public=server.public)
        assert (impostor.shared_secret(client.public)
                == cold_shared_secret(server.secret + 1, client.public)
                != _MEMO_EXPECTED[0, 1])
        assert tls._SHARED_MEMO == left


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

    @pytest.mark.parametrize("data", [b"\x00\x01\xff",
                                      b"\x00\x00\x00\x02\xc3("])
    def test_non_utf8_name_raises_tls_error(self, data):
        with pytest.raises(TlsError):
            Certificate.decode(data)


_CERTIFICATE_WIRE = CertificateAuthority("Test CA", make_rng(1)).issue(
    "dns.example", KeyPair.generate(make_rng(2)).public).encode()


@st.composite
def _mutated_certificates(draw) -> bytes:
    """A genuine certificate's wire with bytes overwritten and a cut."""
    wire = bytearray(_CERTIFICATE_WIRE)
    for position, value in draw(st.lists(
            st.tuples(st.integers(0, len(wire) - 1), st.integers(0, 255)),
            max_size=4)):
        wire[position] = value
    if draw(st.booleans()):
        del wire[draw(st.integers(0, len(wire))):]
    return bytes(wire)


class TestCertificateDecodeProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=64), _mutated_certificates()))
    def test_arbitrary_bytes_raise_only_tls_error(self, data):
        try:
            certificate, consumed = Certificate.decode(data)
        except TlsError:
            return
        assert consumed <= len(data)
        assert certificate.encode() == data[:consumed]


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
        server = TlsServer(server_host, 443, lambda: (cert, key))
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
        server = TlsServer(server_host, 443, lambda: (cert, key))
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
        TlsServer(server_host, 443, lambda: (cert, key))
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
        TlsServer(server_host, 443, lambda: (cert, key))
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
        server = TlsServer(server_host, 443, lambda: (cert, wrong_key))
        # The identity is checked when first used.
        with pytest.raises(TlsError):
            server.certificate

    def test_onpath_tamper_is_dropped_not_decrypted(self):
        """An attacker flipping ciphertext bits cannot alter plaintext —
        the record just fails its MAC and is dropped."""
        sim, net, client_host, server_host, ca, cert, key, reg = build_tls_world()
        server = TlsServer(server_host, 443, lambda: (cert, key))
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
        server = TlsServer(server_host, 443, lambda: (cert, key))
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
        TlsServer(server_host, 443, lambda: (cert, key))
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

    def test_non_utf8_server_hello_fails_the_connection(self):
        """A ServerHello whose certificate names are not UTF-8 fails the
        handshake cleanly instead of raising out of delivery."""
        sim, net, client_host, server_host, ca, cert, key, reg = build_tls_world()
        TlsServer(server_host, 443, lambda: (cert, key))
        failures = []

        def corrupt(link, datagram):
            if datagram.payload and datagram.payload[0] == 2:
                return TapAction.rewrite(datagram.payload[:9]
                                         + b"\x00\x01\xff")
            return TapAction.passthrough()

        net.add_tap("left--right", corrupt)
        conn = TlsClientConnection(client_host, Endpoint(ip("10.0.0.2"), 443),
                                   "dns.example", TrustStore([ca]),
                                   reg.stream("client"))
        conn.on_failure(failures.append)
        conn.connect()
        sim.run()
        assert failures == ["malformed certificate"]
        assert conn.failed == "malformed certificate"
        assert not conn.established

    def test_completed_handshake_pays_two_modexps(self, monkeypatch):
        """The client mints its public value and the server derives the
        secret; the client reads the server's derivation."""
        sim, net, client_host, server_host, ca, cert, key, reg = build_tls_world()
        TlsServer(server_host, 443, lambda: (cert, key))
        tls._SHARED_MEMO.clear()
        calls = []
        real = tls._exchange

        def counting(secret, peer_public):
            calls.append(peer_public)
            return real(secret, peer_public)

        monkeypatch.setattr(tls, "_exchange", counting)
        conn = TlsClientConnection(client_host, Endpoint(ip("10.0.0.2"), 443),
                                   "dns.example", TrustStore([ca]),
                                   reg.stream("client"))
        conn.connect()
        sim.run()
        assert conn.established
        assert len(calls) == 2
        assert tls._SHARED_MEMO == {}

    def test_abandoned_handshakes_keep_the_memo_within_its_cap(self):
        """Handshakes the client never finishes (ServerHello dropped, or
        the certificate untrusted) leave the server's entry behind; past
        the cap the memo is cleared, never grown."""
        sim, net, client_host, server_host, ca, cert, key, reg = build_tls_world()
        TlsServer(server_host, 443, lambda: (cert, key))
        untrusted = TrustStore([CertificateAuthority("Other CA",
                                                     reg.stream("other-ca"))])
        drop_hello = [False]

        def drop_server_hello(link, datagram):
            if drop_hello[0] and datagram.payload[:1] == b"\x02":
                return TapAction.drop()
            return TapAction.passthrough()

        net.add_tap("left--right", drop_server_hello)
        tls._SHARED_MEMO.clear()
        sizes = []
        for index in range(tls._SHARED_MEMO_MAX + 10):
            drop_hello[0] = index % 2 == 0
            conn = TlsClientConnection(
                client_host, Endpoint(ip("10.0.0.2"), 443), "dns.example",
                TrustStore([ca]) if drop_hello[0] else untrusted,
                reg.stream("client", str(index)))
            conn.connect()
            sim.run()
            assert not conn.established
            sizes.append(len(tls._SHARED_MEMO))
        assert max(sizes) == tls._SHARED_MEMO_MAX
        assert sizes[:tls._SHARED_MEMO_MAX] == list(
            range(1, tls._SHARED_MEMO_MAX + 1))
        assert sizes[-1] < tls._SHARED_MEMO_MAX

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
        server = TlsServer(server_host, 443, lambda: (cert, key))
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
