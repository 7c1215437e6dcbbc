"""Tests for the minimal HTTP codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.doh.http import HttpError, HttpRequest, HttpResponse


class TestRequest:
    def test_roundtrip_get(self):
        request = HttpRequest(method="GET", target="/dns-query?dns=AAAA",
                              headers={"Accept": "application/dns-message"})
        decoded = HttpRequest.decode(request.encode())
        assert decoded.method == "GET"
        assert decoded.target == "/dns-query?dns=AAAA"
        assert decoded.header("accept") == "application/dns-message"
        assert decoded.body == b""

    def test_roundtrip_post_with_body(self):
        request = HttpRequest(method="POST", target="/dns-query",
                              headers={"Content-Type": "application/dns-message"},
                              body=b"\x00\x01binary\xff")
        decoded = HttpRequest.decode(request.encode())
        assert decoded.body == b"\x00\x01binary\xff"

    def test_path_and_query_params(self):
        request = HttpRequest(method="GET", target="/dns-query?dns=abc&x=1")
        assert request.path == "/dns-query"
        assert request.query_params == {"dns": "abc", "x": "1"}

    def test_no_query_string(self):
        request = HttpRequest(method="GET", target="/dns-query")
        assert request.query_params == {}

    def test_header_lookup_case_insensitive(self):
        request = HttpRequest(method="GET", target="/",
                              headers={"X-Thing": "v"})
        assert request.header("x-thing") == "v"
        assert request.header("missing", "dflt") == "dflt"

    def test_malformed_request_line(self):
        with pytest.raises(HttpError):
            HttpRequest.decode(b"GARBAGE\r\n\r\n")

    def test_missing_terminator(self):
        with pytest.raises(HttpError):
            HttpRequest.decode(b"GET / HTTP/1.1\r\nHost: x\r\n")

    def test_body_shorter_than_content_length(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"
        with pytest.raises(HttpError):
            HttpRequest.decode(raw)

    def test_bad_content_length(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: nan\r\n\r\n"
        with pytest.raises(HttpError):
            HttpRequest.decode(raw)

    @pytest.mark.parametrize("value", [b"+1_0", b" 0_3 ", b"-0", b"1e1",
                                       b"0x1", b"\xb3", b"9" * 5000])
    def test_content_length_must_be_ascii_digits(self, value):
        raw = (b"POST / HTTP/1.1\r\nContent-Length: " + value
               + b"\r\n\r\n0123456789")
        with pytest.raises(HttpError):
            HttpRequest.decode(raw)

    def test_content_length_with_leading_zero_and_whitespace(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length:  03 \r\n\r\nabcdef"
        assert HttpRequest.decode(raw).body == b"abc"

    def test_method_uppercased(self):
        raw = b"get / HTTP/1.1\r\n\r\n"
        assert HttpRequest.decode(raw).method == "GET"


class TestResponse:
    def test_roundtrip(self):
        response = HttpResponse(status=200,
                                headers={"Content-Type": "application/dns-message"},
                                body=b"\x00\x10")
        decoded = HttpResponse.decode(response.encode())
        assert decoded.status == 200
        assert decoded.ok
        assert decoded.body == b"\x00\x10"

    def test_error_statuses(self):
        for status in (400, 404, 415, 500):
            decoded = HttpResponse.decode(HttpResponse(status=status).encode())
            assert decoded.status == status
            assert not decoded.ok

    def test_unknown_status_reason(self):
        encoded = HttpResponse(status=299).encode()
        assert b"299" in encoded

    def test_malformed_status_line(self):
        with pytest.raises(HttpError):
            HttpResponse.decode(b"NOPE\r\n\r\n")

    def test_non_numeric_status(self):
        with pytest.raises(HttpError):
            HttpResponse.decode(b"HTTP/1.1 abc OK\r\n\r\n")

    @pytest.mark.parametrize("code", [b"2_00", b"-5", b"+200", b"20",
                                      b"2000", b"\xb2\xb3\xb9"])
    def test_status_code_must_be_three_ascii_digits(self, code):
        with pytest.raises(HttpError):
            HttpResponse.decode(b"HTTP/1.1 " + code + b" OK\r\n\r\n")

    def test_response_content_length_must_be_ascii_digits(self):
        with pytest.raises(HttpError):
            HttpResponse.decode(
                b"HTTP/1.1 200 OK\r\nContent-Length: +1_0\r\n\r\n"
                b"0123456789")

    @given(st.binary(max_size=300))
    def test_binary_body_roundtrip(self, body):
        decoded = HttpResponse.decode(HttpResponse(status=200, body=body).encode())
        assert decoded.body == body


_VALID_MESSAGES = [
    HttpRequest(method="GET", target="/dns-query?dns=AAAB",
                headers={"Accept": "application/dns-message"}).encode(),
    HttpRequest(method="POST", target="/dns-query",
                headers={"Content-Type": "application/dns-message"},
                body=b"\x00\x01\r\n:7").encode(),
    HttpResponse(status=200,
                 headers={"Content-Type": "application/dns-message"},
                 body=b"\x00\x10\r\n").encode(),
    HttpResponse(status=404).encode(),
]
_INSERTIONS = [b"\r", b"\n", b"\r\n", b":", b" ", b"-", b"+", b"_"] + [
    str(digit).encode() for digit in range(10)]


@st.composite
def _mutated_messages(draw) -> bytes:
    """A valid request or response with CR, LF, colon, sign and digit
    insertions, byte overwrites and an optional cut."""
    wire = bytearray(draw(st.sampled_from(_VALID_MESSAGES)))
    for _ in range(draw(st.integers(0, 4))):
        position = draw(st.integers(0, len(wire)))
        wire[position:position] = draw(st.sampled_from(_INSERTIONS))
    for position, value in draw(st.lists(
            st.tuples(st.integers(0, len(wire) - 1), st.integers(0, 255)),
            max_size=2)):
        wire[position] = value
    if draw(st.booleans()):
        del wire[draw(st.integers(0, len(wire))):]
    return bytes(wire)


_DECODER_INPUTS = st.one_of(st.binary(max_size=96), _mutated_messages())


def _declared_length(message) -> int:
    return int(message.headers.get("content-length", "0"))


class TestDecodeProperties:
    """Both decoders take arbitrary bytes and fail only with HttpError;
    what they accept declares its body length in plain digits."""

    @settings(max_examples=400, deadline=None)
    @given(_DECODER_INPUTS)
    def test_request_decode_raises_only_http_error(self, data):
        try:
            request = HttpRequest.decode(data)
        except HttpError:
            return
        assert len(request.body) == _declared_length(request)

    @settings(max_examples=400, deadline=None)
    @given(_DECODER_INPUTS)
    def test_response_decode_raises_only_http_error(self, data):
        try:
            response = HttpResponse.decode(data)
        except HttpError:
            return
        assert 0 <= response.status <= 999
        assert len(response.body) == _declared_length(response)
        assert response.headers.get("content-length", "0").isdigit()
