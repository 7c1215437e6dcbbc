"""End-to-end DoH tests over the assembled Figure 1 scenario."""

import pytest

from repro.dns.rcode import RCode
from repro.dns.rrtype import RRType
from repro.doh.client import DoHClient, DoHStatus
from repro.doh.tls import CertificateAuthority, TrustStore
from repro.scenarios import materialize, pool_spec

QUERY_DOMAIN = "pool.ntp.org"


@pytest.fixture(scope="module")
def scenario():
    return materialize(pool_spec(num_providers=3, pool_size=20), 3)


def run_query(scenario, client: DoHClient, provider, qname=QUERY_DOMAIN,
              qtype=RRType.A):
    outcomes = []
    client.query(provider.endpoint, provider.name, qname, qtype,
                 outcomes.append)
    scenario.simulator.run()
    assert len(outcomes) == 1
    return outcomes[0]


class TestDoHQueries:
    def test_get_query_resolves_pool(self, scenario):
        client = DoHClient(scenario.client, scenario.simulator,
                           scenario.trust_store,
                           rng=scenario.rng.stream("t1"), method="GET")
        outcome = run_query(scenario, client, scenario.providers[0])
        assert outcome.ok
        assert outcome.message.rcode is RCode.NOERROR
        addresses = [str(r.rdata.address) for r in outcome.message.answers]
        assert len(addresses) == scenario.directory.answers_per_query
        for address in addresses:
            assert scenario.directory.is_benign(address)

    def test_post_query_resolves_pool(self, scenario):
        client = DoHClient(scenario.client, scenario.simulator,
                           scenario.trust_store,
                           rng=scenario.rng.stream("t2"), method="POST")
        outcome = run_query(scenario, client, scenario.providers[1])
        assert outcome.ok

    def test_all_three_figure1_providers_answer(self, scenario):
        client = DoHClient(scenario.client, scenario.simulator,
                           scenario.trust_store,
                           rng=scenario.rng.stream("t3"))
        names = set()
        for provider in scenario.providers:
            outcome = run_query(scenario, client, provider)
            assert outcome.ok, provider.name
            names.add(provider.name)
        assert names == {"dns.google", "cloudflare-dns.com", "dns.quad9.net"}

    def test_rotation_differs_across_queries(self, scenario):
        client = DoHClient(scenario.client, scenario.simulator,
                           scenario.trust_store,
                           rng=scenario.rng.stream("t4"))
        provider = scenario.providers[0]
        first = run_query(scenario, client, provider)
        # Defeat the provider cache by advancing past the TTL.
        scenario.simulator.run(until=scenario.simulator.now + 61)
        second = run_query(scenario, client, provider)
        a1 = sorted(str(r.rdata.address) for r in first.message.answers)
        a2 = sorted(str(r.rdata.address) for r in second.message.answers)
        assert a1 != a2  # rotation happened (deterministic for this seed)

    def test_nxdomain_propagates(self, scenario):
        client = DoHClient(scenario.client, scenario.simulator,
                           scenario.trust_store,
                           rng=scenario.rng.stream("t5"))
        outcome = run_query(scenario, client, scenario.providers[0],
                            qname="missing.ntp.org")
        assert outcome.ok  # HTTP layer fine
        assert outcome.message.rcode is RCode.NXDOMAIN

    def test_untrusted_client_store_fails_tls(self, scenario):
        rogue_store = TrustStore([CertificateAuthority(
            "Rogue CA", scenario.rng.stream("rogue"))])
        client = DoHClient(scenario.client, scenario.simulator, rogue_store,
                           rng=scenario.rng.stream("t6"))
        outcome = run_query(scenario, client, scenario.providers[0])
        assert outcome.status is DoHStatus.TLS_FAILURE

    def test_latency_recorded(self, scenario):
        client = DoHClient(scenario.client, scenario.simulator,
                           scenario.trust_store,
                           rng=scenario.rng.stream("t7"))
        outcome = run_query(scenario, client, scenario.providers[0])
        assert outcome.latency is not None
        assert outcome.latency > 0

    def test_timeout_on_unreachable_provider(self):
        scenario = materialize(pool_spec(num_providers=1), 4)
        # Cut the provider's region off.
        provider = scenario.providers[0]
        topo = scenario.internet.topology
        region = provider.host.node
        for other in list(topo.nodes):
            if topo.link_between(region, other) is not None:
                topo.remove_link(region, other)
        client = DoHClient(scenario.client, scenario.simulator,
                           scenario.trust_store,
                           rng=scenario.rng.stream("t8"), timeout=1.0)
        outcome = run_query(scenario, client, provider)
        assert outcome.status is DoHStatus.TIMEOUT


class TestDoHServerValidation:
    """Exercise the HTTP-level rejections via a raw TLS client."""

    @pytest.fixture()
    def tls_conn(self, scenario):
        from repro.doh.tls import TlsClientConnection
        provider = scenario.providers[0]
        conn = TlsClientConnection(
            scenario.client, provider.endpoint, provider.name,
            scenario.trust_store, scenario.rng.stream("raw"))
        return conn

    def send_raw(self, scenario, tls_conn, raw_bytes):
        from repro.doh.http import HttpResponse
        responses = []
        tls_conn.on_established(lambda: tls_conn.send(raw_bytes))
        tls_conn.on_data(lambda data: responses.append(HttpResponse.decode(data)))
        tls_conn.connect()
        scenario.simulator.run()
        assert len(responses) == 1
        return responses[0]

    def test_wrong_path_404(self, scenario, tls_conn):
        from repro.doh.http import HttpRequest
        response = self.send_raw(
            scenario, tls_conn,
            HttpRequest(method="GET", target="/wrong?dns=AAAA").encode())
        assert response.status == 404

    def test_missing_dns_param_400(self, scenario, tls_conn):
        from repro.doh.http import HttpRequest
        response = self.send_raw(
            scenario, tls_conn,
            HttpRequest(method="GET", target="/dns-query").encode())
        assert response.status == 400

    def test_bad_base64_400(self, scenario, tls_conn):
        from repro.doh.http import HttpRequest
        response = self.send_raw(
            scenario, tls_conn,
            HttpRequest(method="GET", target="/dns-query?dns=!!!").encode())
        assert response.status == 400

    def test_wrong_content_type_415(self, scenario, tls_conn):
        from repro.doh.http import HttpRequest
        response = self.send_raw(
            scenario, tls_conn,
            HttpRequest(method="POST", target="/dns-query",
                        headers={"Content-Type": "text/plain"},
                        body=b"x").encode())
        assert response.status == 415

    def test_unsupported_method_405(self, scenario, tls_conn):
        from repro.doh.http import HttpRequest
        response = self.send_raw(
            scenario, tls_conn,
            HttpRequest(method="PUT", target="/dns-query").encode())
        assert response.status == 405

    def test_garbage_dns_payload_400(self, scenario, tls_conn):
        from repro.doh.encoding import b64url_encode
        from repro.doh.http import HttpRequest
        response = self.send_raw(
            scenario, tls_conn,
            HttpRequest(method="GET",
                        target=f"/dns-query?dns={b64url_encode(b'xx')}"
                        ).encode())
        assert response.status == 400
