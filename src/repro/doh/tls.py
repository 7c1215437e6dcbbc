"""A structurally honest TLS substitute for the simulation.

The paper relies on one property of the DoH channel: responses cannot be
forged or read by anyone who is not the authenticated server. We provide
that property with *working* mechanics instead of an honour-system flag:

* **Key exchange** — real finite-field Diffie-Hellman over the RFC 3526
  group-14 prime. The server's *static* DH public key is bound to its
  name by a certificate; the client uses an ephemeral key. Only the
  holder of the certified private key can compute the session secret,
  which authenticates the server (TLS-style static-DH authentication).
  Both modular exponentiations (minting a public value and deriving a
  shared secret) run in OpenSSL through the ``cryptography`` package,
  imported on the first one, so worlds that mint no keys never load it.
  A server mints its static key pair only when its identity is first
  needed (:class:`TlsServer` takes it as a callable), so that includes
  every world whose clients never open a TLS connection: plain-DNS
  providers, and plain-DNS fleets in front of DoH-serving ones.
  OpenSSL returns exactly the integers ``pow()`` would.
* **Two modexps per handshake** — the client mints its ephemeral
  public value, the server derives the shared secret from it, and the
  client then reads that secret instead of deriving it again. This is
  sound only when *both* pairs came from :meth:`KeyPair.generate`: for
  A = g^a and B = g^b, A's secret with peer B is B^a = g^(ab) = A^b,
  the value B would compute. A pair built directly may hold a public
  value that does not match its secret, so it never touches the memo;
  a peer value no generated pair minted (a crafted one, say) finds no
  entry and is derived cold. A generated secret is never a multiple of
  q (minting its public value would have raised), so the cold path
  could not have failed where the memo answers, and the range check on
  the peer value runs before any lookup. A hit and a miss yield the
  same bytes.
* **Record protection** — every record is encrypted with a keystream
  derived from the session secret and carries an HMAC-SHA256 tag; the
  receiver drops records whose tag fails, so an on-path attacker can
  drop or delay but not read or rewrite.
* **Certificates** — a :class:`CertificateAuthority` signs (HMAC over
  its private secret) the binding of subject name to static public key.
  Verification recomputes nothing secret: the CA exposes a *verifier*
  (its issued-fingerprint set) through the :class:`TrustStore`. CA
  compromise is modelled explicitly by handing the attacker the CA
  object (see :mod:`repro.attacks.mitm`).

What is deliberately *not* modelled: cipher agility, session resumption,
real X.509 encoding, and TCP segmentation — none of which the paper's
argument touches. The handshake is one round trip over the datagram
layer.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
import random
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.netsim.address import Endpoint
from repro.netsim.host import Host
from repro.netsim.packet import Datagram
from repro.netsim.socket import UdpSocket

# RFC 3526 group 14: 2048-bit MODP prime, generator 2.
DH_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF", 16)
DH_GENERATOR = 2
_KEY_BYTES = 256  # 2048-bit group elements
_DH_ORDER = (DH_PRIME - 1) // 2  # q: DH_PRIME is a safe prime 2q + 1

_RECORD_CLIENT_HELLO = 1
_RECORD_SERVER_HELLO = 2
_RECORD_DATA = 3
_RECORD_ALERT = 4

_session_counter = itertools.count(1)

# Shared secrets derived by generated pairs, keyed (own public, peer
# public) and popped by the generated peer under the swapped key (see
# the module docstring). Bounded like the DNS decode memo: cleared on
# overflow, which only costs the next reader a cold derivation.
_SHARED_MEMO: Dict[Tuple[int, int], bytes] = {}
_SHARED_MEMO_MAX = 256


class TlsError(RuntimeError):
    """Raised for handshake/record failures surfaced to the caller."""


# ----------------------------------------------------------------------
# Keys and certificates.
# ----------------------------------------------------------------------


def _exchange(secret: int, peer_public: int) -> bytes:
    """``peer_public ** secret mod DH_PRIME`` as 256 big-endian bytes,
    computed by OpenSSL.

    The import happens here, not at module import, so worlds that mint
    no keys never load ``cryptography``. OpenSSL refuses a result of 1
    or ``DH_PRIME - 1``; for a peer in ``[2, DH_PRIME - 2]`` that
    happens exactly when ``secret`` is a multiple of q, so such secrets
    fail here with :class:`TlsError` rather than as the binding's panic
    (a ``BaseException``).
    """
    if secret % _DH_ORDER == 0:
        raise TlsError("degenerate DH secret")
    from cryptography.hazmat.primitives.asymmetric import dh

    group = dh.DHParameterNumbers(DH_PRIME, DH_GENERATOR)
    # The private key's own public value takes no part in the exchange,
    # so the generator stands in for it rather than paying a modexp.
    private = dh.DHPrivateNumbers(
        secret, dh.DHPublicNumbers(DH_GENERATOR, group)).private_key()
    peer = dh.DHPublicNumbers(peer_public, group).public_key()
    return private.exchange(peer)


@dataclass(frozen=True)
class KeyPair:
    """A static or ephemeral DH keypair."""

    secret: int
    public: int
    # True only for pairs minted by generate(), whose public value is
    # known to be g^secret; only those read or write _SHARED_MEMO.
    _generated: bool = field(default=False, init=False, repr=False,
                             compare=False)

    @classmethod
    def generate(cls, rng: random.Random) -> "KeyPair":
        secret = rng.randrange(2, DH_PRIME - 2)
        public = _exchange(secret, DH_GENERATOR)
        pair = cls(secret=secret, public=int.from_bytes(public, "big"))
        object.__setattr__(pair, "_generated", True)
        return pair

    def shared_secret(self, peer_public: int) -> bytes:
        """Compute the DH shared secret with a peer's public value."""
        if not 2 <= peer_public <= DH_PRIME - 2:
            raise TlsError("peer public value out of range")
        if self._generated:
            shared = _SHARED_MEMO.pop((peer_public, self.public), None)
            if shared is not None:
                return shared
        shared = hashlib.sha256(_exchange(self.secret, peer_public)).digest()
        if self._generated:
            if len(_SHARED_MEMO) >= _SHARED_MEMO_MAX:
                _SHARED_MEMO.clear()
            _SHARED_MEMO[(self.public, peer_public)] = shared
        return shared


@dataclass(frozen=True)
class Certificate:
    """Binds a server name to a static DH public key, signed by a CA."""

    subject: str
    issuer: str
    public_key: int
    serial: int
    signature: bytes

    @property
    def fingerprint(self) -> bytes:
        return hashlib.sha256(self._signed_blob()).digest()

    def _signed_blob(self) -> bytes:
        return b"|".join([
            self.subject.encode("utf-8"),
            self.issuer.encode("utf-8"),
            self.public_key.to_bytes(_KEY_BYTES, "big"),
            str(self.serial).encode("ascii"),
        ])

    # ------------------------------------------------------------------
    # Wire form (length-prefixed fields).
    # ------------------------------------------------------------------

    def encode(self) -> bytes:
        subject = self.subject.encode("utf-8")
        issuer = self.issuer.encode("utf-8")
        return b"".join([
            struct.pack("!H", len(subject)), subject,
            struct.pack("!H", len(issuer)), issuer,
            self.public_key.to_bytes(_KEY_BYTES, "big"),
            struct.pack("!I", self.serial),
            struct.pack("!H", len(self.signature)), self.signature,
        ])

    @classmethod
    def decode(cls, data: bytes) -> Tuple["Certificate", int]:
        """Decode from ``data``; returns (certificate, bytes consumed)."""
        offset = 0

        def take(count: int) -> bytes:
            nonlocal offset
            if offset + count > len(data):
                raise TlsError("truncated certificate")
            chunk = data[offset:offset + count]
            offset += count
            return chunk

        def take_name() -> str:
            raw = take(struct.unpack("!H", take(2))[0])
            try:
                return raw.decode("utf-8")
            except UnicodeDecodeError:
                raise TlsError("certificate name is not UTF-8") from None

        subject = take_name()
        issuer = take_name()
        public_key = int.from_bytes(take(_KEY_BYTES), "big")
        serial = struct.unpack("!I", take(4))[0]
        sig_len = struct.unpack("!H", take(2))[0]
        signature = take(sig_len)
        return cls(subject, issuer, public_key, serial, signature), offset


class CertificateAuthority:
    """Issues certificates and remembers what it issued.

    The "signature" is an HMAC over the CA's private secret; clients do
    not verify it cryptographically (they would need the secret) —
    instead the :class:`TrustStore` asks the CA object whether the
    certificate's fingerprint is in its issued set. Forging therefore
    requires holding the CA object itself, which is exactly the
    "attacker compromised a trusted CA" capability and is granted to
    attack code explicitly, never implicitly.
    """

    def __init__(self, name: str, rng: random.Random) -> None:
        self._name = name
        self._secret = rng.randbytes(32)
        self._serial = itertools.count(1)
        self._issued: Set[bytes] = set()

    @property
    def name(self) -> str:
        return self._name

    def issue(self, subject: str, public_key: int) -> Certificate:
        """Issue a certificate binding ``subject`` to ``public_key``."""
        return self.reserve(subject)(public_key)

    def reserve(self, subject: str) -> Callable[[int], Certificate]:
        """Take the next serial now for a certificate issued later.

        The returned callable issues ``subject``'s certificate for the
        public key it is given, under the reserved serial, whatever the
        CA has issued in between: a server whose key pair is minted on
        first use keeps the serial of its deployment order.
        """
        serial = next(self._serial)

        def issue(public_key: int) -> Certificate:
            unsigned = Certificate(subject=subject, issuer=self._name,
                                   public_key=public_key, serial=serial,
                                   signature=b"")
            signature = hmac.new(self._secret, unsigned._signed_blob(),
                                 hashlib.sha256).digest()
            cert = Certificate(subject=subject, issuer=self._name,
                               public_key=public_key, serial=serial,
                               signature=signature)
            self._issued.add(cert.fingerprint)
            return cert

        return issue

    def has_issued(self, certificate: Certificate) -> bool:
        """Whether this CA issued the certificate (fingerprint match)."""
        expected = hmac.new(self._secret, certificate._signed_blob(),
                            hashlib.sha256).digest()
        return (certificate.fingerprint in self._issued
                and hmac.compare_digest(expected, certificate.signature))

    def revoke(self, certificate: Certificate) -> None:
        """Drop a certificate from the issued set (revocation)."""
        self._issued.discard(certificate.fingerprint)


class TrustStore:
    """The set of CAs a client trusts."""

    def __init__(self, authorities: List[CertificateAuthority]) -> None:
        self._authorities = {ca.name: ca for ca in authorities}

    def add(self, authority: CertificateAuthority) -> None:
        self._authorities[authority.name] = authority

    def verify(self, certificate: Certificate, expected_subject: str) -> bool:
        """Validate issuer trust and subject-name match."""
        if certificate.subject != expected_subject:
            return False
        authority = self._authorities.get(certificate.issuer)
        if authority is None:
            return False
        return authority.has_issued(certificate)


# ----------------------------------------------------------------------
# Record protection.
# ----------------------------------------------------------------------


def _keystream(key: bytes, direction: bytes, seq: int, length: int) -> bytes:
    blocks = []
    produced = 0
    counter = 0
    while produced < length:
        block = hashlib.sha256(
            key + direction + struct.pack("!QI", seq, counter)).digest()
        blocks.append(block)
        produced += len(block)
        counter += 1
    return b"".join(blocks)[:length]


def _seal(key: bytes, direction: bytes, session_id: int, seq: int,
          plaintext: bytes) -> bytes:
    stream = _keystream(key, direction, seq, len(plaintext))
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    tag = hmac.new(key, struct.pack("!BQQ", _RECORD_DATA, session_id, seq)
                   + direction + ciphertext, hashlib.sha256).digest()
    return ciphertext + tag


def _open(key: bytes, direction: bytes, session_id: int, seq: int,
          sealed: bytes) -> Optional[bytes]:
    if len(sealed) < 32:
        return None
    ciphertext, tag = sealed[:-32], sealed[-32:]
    expected = hmac.new(key, struct.pack("!BQQ", _RECORD_DATA, session_id, seq)
                        + direction + ciphertext, hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        return None
    stream = _keystream(key, direction, seq, len(ciphertext))
    return bytes(c ^ s for c, s in zip(ciphertext, stream))


_DIR_CLIENT_TO_SERVER = b"c2s"
_DIR_SERVER_TO_CLIENT = b"s2c"


# ----------------------------------------------------------------------
# Server half.
# ----------------------------------------------------------------------


@dataclass
class _ServerSession:
    key: bytes
    peer: Endpoint
    recv_seq: int = 0
    send_seq: int = 0


# Handler receives (session_id, decrypted request bytes, reply callable).
ServerDataHandler = Callable[[int, bytes, Callable[[bytes], None]], None]


#: A server's TLS identity: returns its certificate and the static DH
#: key pair the certificate binds.
ServerIdentity = Callable[[], Tuple[Certificate, KeyPair]]


class TlsServer:
    """Server half of the secure channel, bound to host:port.

    :param host: simulated machine.
    :param port: UDP port (443 for DoH).
    :param identity: returns the certificate presented to clients and
        the static DH keypair matching it. It is called once, on the
        first ClientHello or the first read of :attr:`certificate`,
        so a server nobody connects to never mints its key pair.
    :param on_data: application callback for each decrypted record.
    """

    def __init__(self, host: Host, port: int, identity: ServerIdentity,
                 on_data: Optional[ServerDataHandler] = None) -> None:
        self._host = host
        self._identity: Optional[ServerIdentity] = identity
        self._certificate: Optional[Certificate] = None
        self._keypair: Optional[KeyPair] = None
        self._on_data = on_data
        self._sessions: Dict[int, _ServerSession] = {}
        self._socket = host.bind(port, self._handle_datagram)
        self._handshakes_completed = 0
        self._records_rejected = 0

    @property
    def endpoint(self) -> Endpoint:
        return self._socket.endpoint

    @property
    def certificate(self) -> Certificate:
        return self._credentials()[0]

    def _credentials(self) -> Tuple[Certificate, KeyPair]:
        if self._identity is not None:
            certificate, keypair = self._identity()
            if certificate.public_key != keypair.public:
                raise TlsError("certificate does not match keypair")
            self._certificate, self._keypair = certificate, keypair
            self._identity = None
        return self._certificate, self._keypair

    @property
    def handshakes_completed(self) -> int:
        return self._handshakes_completed

    @property
    def records_rejected(self) -> int:
        """Records dropped for MAC failure or unknown session."""
        return self._records_rejected

    def on_data(self, handler: ServerDataHandler) -> None:
        self._on_data = handler

    def _handle_datagram(self, datagram: Datagram) -> None:
        payload = datagram.payload
        if len(payload) < 9:
            return
        record_type = payload[0]
        session_id = struct.unpack("!Q", payload[1:9])[0]
        body = payload[9:]
        if record_type == _RECORD_CLIENT_HELLO:
            self._handle_client_hello(datagram, session_id, body)
        elif record_type == _RECORD_DATA:
            self._handle_data(datagram, session_id, body)
        # Alerts and unknown types are dropped silently.

    def _handle_client_hello(self, datagram: Datagram, session_id: int,
                             body: bytes) -> None:
        if len(body) < _KEY_BYTES:
            return
        client_public = int.from_bytes(body[:_KEY_BYTES], "big")
        certificate, keypair = self._credentials()
        try:
            key = keypair.shared_secret(client_public)
        except TlsError:
            return
        self._sessions[session_id] = _ServerSession(key=key, peer=datagram.src)
        self._handshakes_completed += 1
        # ServerHello: certificate + key confirmation MAC. The MAC
        # proves possession of the certified private key (only the real
        # server can compute `key`).
        confirmation = hmac.new(key, b"server-finished"
                                + struct.pack("!Q", session_id),
                                hashlib.sha256).digest()
        hello = (struct.pack("!BQ", _RECORD_SERVER_HELLO, session_id)
                 + certificate.encode() + confirmation)
        self._socket.reply(datagram, hello)

    def _handle_data(self, datagram: Datagram, session_id: int,
                     body: bytes) -> None:
        session = self._sessions.get(session_id)
        if session is None:
            self._records_rejected += 1
            return
        plaintext = _open(session.key, _DIR_CLIENT_TO_SERVER, session_id,
                          session.recv_seq, body)
        if plaintext is None:
            self._records_rejected += 1
            return
        session.recv_seq += 1
        if self._on_data is None:
            return

        def reply(data: bytes) -> None:
            sealed = _seal(session.key, _DIR_SERVER_TO_CLIENT, session_id,
                           session.send_seq, data)
            session.send_seq += 1
            record = struct.pack("!BQ", _RECORD_DATA, session_id) + sealed
            self._socket.sendto(session.peer, record)

        self._on_data(session_id, plaintext, reply)


# ----------------------------------------------------------------------
# Client half.
# ----------------------------------------------------------------------


class TlsClientConnection:
    """Client half: connect, verify the server, exchange records.

    Usage::

        conn = TlsClientConnection(host, server_endpoint, "dns.example",
                                   trust_store, rng)
        conn.on_established(lambda: conn.send(b"request"))
        conn.on_data(handle_response_bytes)
        conn.on_failure(handle_tls_failure)
        conn.connect()
    """

    def __init__(self, host: Host, server: Endpoint, server_name: str,
                 trust_store: TrustStore, rng: random.Random) -> None:
        self._host = host
        self._server = server
        self._server_name = server_name
        self._trust_store = trust_store
        self._keypair = KeyPair.generate(rng)
        self._session_id = next(_session_counter)
        self._key: Optional[bytes] = None
        self._send_seq = 0
        self._recv_seq = 0
        self._established = False
        self._failed: Optional[str] = None
        self._socket: Optional[UdpSocket] = None
        self._on_established: Optional[Callable[[], None]] = None
        self._on_data: Optional[Callable[[bytes], None]] = None
        self._on_failure: Optional[Callable[[str], None]] = None
        self._records_rejected = 0

    # ------------------------------------------------------------------
    # Callbacks.
    # ------------------------------------------------------------------

    def on_established(self, callback: Callable[[], None]) -> None:
        self._on_established = callback

    def on_data(self, callback: Callable[[bytes], None]) -> None:
        self._on_data = callback

    def on_failure(self, callback: Callable[[str], None]) -> None:
        self._on_failure = callback

    # ------------------------------------------------------------------
    # State.
    # ------------------------------------------------------------------

    @property
    def established(self) -> bool:
        return self._established

    @property
    def failed(self) -> Optional[str]:
        return self._failed

    @property
    def session_id(self) -> int:
        return self._session_id

    @property
    def records_rejected(self) -> int:
        return self._records_rejected

    @property
    def server(self) -> Endpoint:
        return self._server

    # ------------------------------------------------------------------
    # Operations.
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Send the ClientHello; completion arrives via callbacks."""
        self._socket = self._host.ephemeral_socket(self._handle_datagram)
        hello = (struct.pack("!BQ", _RECORD_CLIENT_HELLO, self._session_id)
                 + self._keypair.public.to_bytes(_KEY_BYTES, "big"))
        self._socket.sendto(self._server, hello)

    def send(self, data: bytes) -> None:
        """Encrypt and send one application record."""
        if not self._established or self._key is None:
            raise TlsError("connection not established")
        sealed = _seal(self._key, _DIR_CLIENT_TO_SERVER, self._session_id,
                       self._send_seq, data)
        self._send_seq += 1
        record = struct.pack("!BQ", _RECORD_DATA, self._session_id) + sealed
        assert self._socket is not None
        self._socket.sendto(self._server, record)

    def close(self) -> None:
        """Release the socket and drop the owner's callbacks (they
        close over the owner, so keeping them would pin it in a cycle
        with this connection)."""
        if self._socket is not None:
            self._socket.close()
            self._socket = None
        self._on_established = None
        self._on_data = None
        self._on_failure = None

    # ------------------------------------------------------------------
    # Inbound records.
    # ------------------------------------------------------------------

    def _handle_datagram(self, datagram: Datagram) -> None:
        payload = datagram.payload
        if len(payload) < 9:
            return
        record_type = payload[0]
        session_id = struct.unpack("!Q", payload[1:9])[0]
        if session_id != self._session_id:
            self._records_rejected += 1
            return
        body = payload[9:]
        if record_type == _RECORD_SERVER_HELLO and not self._established:
            self._handle_server_hello(body)
        elif record_type == _RECORD_DATA and self._established:
            self._handle_data(body)

    def _handle_server_hello(self, body: bytes) -> None:
        try:
            certificate, consumed = Certificate.decode(body)
        except TlsError:
            self._fail("malformed certificate")
            return
        confirmation = body[consumed:]
        if not self._trust_store.verify(certificate, self._server_name):
            self._fail(f"certificate verification failed for "
                       f"{certificate.subject!r} (expected "
                       f"{self._server_name!r})")
            return
        try:
            key = self._keypair.shared_secret(certificate.public_key)
        except TlsError:
            self._fail("bad server public key")
            return
        expected = hmac.new(key, b"server-finished"
                            + struct.pack("!Q", self._session_id),
                            hashlib.sha256).digest()
        if not hmac.compare_digest(confirmation, expected):
            # Whoever answered does not hold the certified private key
            # (e.g. an on-path attacker replaying a genuine certificate).
            self._fail("server failed key confirmation")
            return
        self._key = key
        self._established = True
        if self._on_established is not None:
            self._on_established()

    def _handle_data(self, body: bytes) -> None:
        assert self._key is not None
        plaintext = _open(self._key, _DIR_SERVER_TO_CLIENT, self._session_id,
                          self._recv_seq, body)
        if plaintext is None:
            self._records_rejected += 1
            return
        self._recv_seq += 1
        if self._on_data is not None:
            self._on_data(plaintext)

    def _fail(self, reason: str) -> None:
        if self._failed is not None:
            return
        self._failed = reason
        on_failure = self._on_failure
        self.close()
        if on_failure is not None:
            on_failure(reason)
