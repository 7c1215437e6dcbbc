"""Tests for addressing."""

import ipaddress

import pytest
from hypothesis import given, strategies as st

from repro.netsim.address import AddressAllocator, Endpoint, IPAddress, ip


class TestIPAddress:
    def test_ipv4_family(self):
        assert ip("192.0.2.1").family == 4

    def test_ipv6_family(self):
        assert ip("2001:db8::1").family == 6

    def test_equality(self):
        assert ip("192.0.2.1") == ip("192.0.2.1")
        assert ip("192.0.2.1") != ip("192.0.2.2")

    def test_equality_with_string(self):
        assert ip("192.0.2.1") == "192.0.2.1"

    def test_hashable(self):
        assert len({ip("192.0.2.1"), ip("192.0.2.1"), ip("192.0.2.2")}) == 2

    def test_copy_constructor(self):
        original = ip("10.0.0.1")
        assert IPAddress(original) == original

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            ip("not-an-address")

    def test_packed_roundtrip_v4(self):
        address = ip("198.51.100.7")
        assert IPAddress.from_packed(address.packed) == address
        assert len(address.packed) == 4

    def test_packed_roundtrip_v6(self):
        address = ip("2001:db8::42")
        assert IPAddress.from_packed(address.packed) == address
        assert len(address.packed) == 16

    def test_from_packed_bad_length(self):
        with pytest.raises(ValueError):
            IPAddress.from_packed(b"\x01\x02\x03")

    def test_ordering_within_family(self):
        assert ip("10.0.0.1") < ip("10.0.0.2")

    def test_ordering_across_families(self):
        assert ip("255.255.255.255") < ip("::1")

    def test_str(self):
        assert str(ip("192.0.2.1")) == "192.0.2.1"

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_v4_packed_roundtrip_property(self, raw):
        packed = raw.to_bytes(4, "big")
        assert IPAddress.from_packed(packed).packed == packed


class TestTextCache:
    """``str(IPAddress)`` is cached on the value; the cache must read
    exactly what :mod:`ipaddress` renders, on every construction path."""

    TEXTS = ("192.0.2.1", "10.0.0.255", "0.0.0.0", "2001:DB8::1",
             "::1", "fe80::1:0:0:2", "::ffff:192.0.2.7")

    @staticmethod
    def _builds(text):
        inner = ipaddress.ip_address(text)
        return {"text": IPAddress(text), "object": IPAddress(inner),
                "packed": IPAddress.from_packed(inner.packed)}

    @pytest.mark.parametrize("text", TEXTS)
    def test_first_and_repeated_render_match_ipaddress(self, text):
        expected = str(ipaddress.ip_address(text))
        for address in self._builds(text).values():
            assert str(address) == expected
            assert str(address) == expected
            assert repr(address) == f"IPAddress({expected!r})"

    @pytest.mark.parametrize("text", TEXTS)
    def test_copies_carry_the_cached_text(self, text):
        expected = str(ipaddress.ip_address(text))
        for address in self._builds(text).values():
            assert IPAddress(address)._text is None
            str(address)
            copy = IPAddress(address)
            assert copy._text is address._text
            assert str(copy) == expected

    @given(st.binary(min_size=16, max_size=16) | st.binary(min_size=4,
                                                           max_size=4))
    def test_packed_text_property(self, packed):
        address = IPAddress.from_packed(packed)
        expected = str(ipaddress.ip_address(packed))
        assert (str(address), str(address)) == (expected, expected)


class TestEndpoint:
    def test_construction(self):
        endpoint = Endpoint(ip("192.0.2.1"), 53)
        assert endpoint.port == 53
        assert endpoint.address == ip("192.0.2.1")

    def test_accepts_string_address(self):
        endpoint = Endpoint("192.0.2.1", 53)
        assert endpoint.address == ip("192.0.2.1")

    def test_invalid_port(self):
        with pytest.raises(ValueError):
            Endpoint(ip("192.0.2.1"), 70000)

    def test_frozen_and_hashable(self):
        a = Endpoint(ip("192.0.2.1"), 53)
        b = Endpoint(ip("192.0.2.1"), 53)
        assert a == b
        assert len({a, b}) == 1

    def test_str_v6_brackets(self):
        assert str(Endpoint(ip("2001:db8::1"), 443)) == "[2001:db8::1]:443"


class TestAddressAllocator:
    def test_unique_ipv4(self):
        alloc = AddressAllocator()
        seen = {alloc.next_ipv4() for _ in range(100)}
        assert len(seen) == 100

    def test_unique_ipv6(self):
        alloc = AddressAllocator()
        seen = {alloc.next_ipv6() for _ in range(100)}
        assert len(seen) == 100

    def test_families(self):
        alloc = AddressAllocator()
        assert alloc.next_for_family(4).family == 4
        assert alloc.next_for_family(6).family == 6

    def test_bad_family(self):
        with pytest.raises(ValueError):
            AddressAllocator().next_for_family(5)
