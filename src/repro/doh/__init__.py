"""DNS-over-HTTPS substrate (RFC 8484) over a simulated TLS layer.

The paper's security argument rests on one property of DoH: the channel
between client and resolver is *authenticated and confidential*, so an
off-path attacker cannot inject answers and an on-path attacker can at
worst drop or delay traffic. :mod:`repro.doh.tls` provides exactly that
property with honest mechanics — a real (mod-p) Diffie-Hellman key
exchange authenticated by a certificate binding the server name to its
static DH key, with per-record MACs — rather than a flag an attacker
implementation could "forget" to honour. The exchange's 2048-bit modular
exponentiations run in OpenSSL through the ``cryptography`` package,
which is imported on a world's first handshake. A completed handshake
pays two of them: the client mints its ephemeral public value and the
server derives the shared secret, which the client then reads instead
of deriving it again. That shortcut is taken only when both key pairs
came from ``KeyPair.generate``; any other pair derives cold. A
provider's static key pair is minted on its first handshake too, so
the first handshake to each provider pays one modexp more, and a world
whose clients never open a TLS connection never loads the package.

Modules:

* :mod:`repro.doh.tls` — certificates, trust stores, and the secure
  channel (client + server halves) over simulated datagrams;
* :mod:`repro.doh.http` — a minimal HTTP/1.1 request/response codec;
* :mod:`repro.doh.encoding` — base64url helpers for the DoH GET form;
* :mod:`repro.doh.server` — a DoH endpoint backed by a recursive
  resolver on the same host;
* :mod:`repro.doh.client` — a DoH client issuing GET/POST queries;
* :mod:`repro.doh.providers` — provider deployment profiles modelled on
  the public resolvers the paper names (Google / Cloudflare / Quad9).
"""

from repro.doh.client import DoHClient, DoHQueryOutcome
from repro.doh.encoding import b64url_decode, b64url_encode
from repro.doh.http import HttpRequest, HttpResponse
from repro.doh.providers import DoHProviderProfile, ProviderDeployment, deploy_provider
from repro.doh.server import DoHServer
from repro.doh.tls import (
    Certificate,
    CertificateAuthority,
    KeyPair,
    TlsClientConnection,
    TlsError,
    TlsServer,
    TrustStore,
)

__all__ = [
    "DoHClient",
    "DoHQueryOutcome",
    "b64url_decode",
    "b64url_encode",
    "HttpRequest",
    "HttpResponse",
    "DoHProviderProfile",
    "ProviderDeployment",
    "deploy_provider",
    "DoHServer",
    "Certificate",
    "CertificateAuthority",
    "KeyPair",
    "TlsClientConnection",
    "TlsError",
    "TlsServer",
    "TrustStore",
]
