"""Protocol tests for the hand-rolled HTTP/1.1 parser and encoder."""

import asyncio
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.http11 import (
    MAX_BODY_BYTES,
    HttpError,
    Request,
    Response,
    canonical_json,
    read_request,
)


def parse(raw: bytes):
    """Feed raw bytes to read_request through a StreamReader."""
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


def test_parses_simple_get():
    request = parse(b"GET /v1/health?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n")
    assert request.method == "GET"
    assert request.path == "/v1/health"
    assert request.query == {"verbose": "1"}
    assert request.headers["host"] == "x"
    assert request.body == b""
    assert request.keep_alive


def test_parses_post_body_by_content_length():
    body = json.dumps({"n_gpus": 1024}).encode()
    raw = (
        b"POST /v1/whatif/checkpoint-cadence HTTP/1.1\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )
    request = parse(raw)
    assert request.method == "POST"
    assert request.json() == {"n_gpus": 1024}


def test_clean_eof_returns_none():
    assert parse(b"") is None


def test_malformed_request_line_is_400():
    with pytest.raises(HttpError) as err:
        parse(b"NONSENSE\r\n\r\n")
    assert err.value.status == 400


def test_unsupported_protocol_is_400():
    with pytest.raises(HttpError) as err:
        parse(b"GET / HTTP/2.0\r\n\r\n")
    assert err.value.status == 400


def test_oversized_request_line_is_431():
    with pytest.raises(HttpError) as err:
        parse(b"GET /" + b"a" * 10_000 + b" HTTP/1.1\r\n\r\n")
    assert err.value.status == 431


def test_oversized_headers_are_431():
    headers = b"".join(
        b"X-Pad-%d: %s\r\n" % (i, b"v" * 1000) for i in range(64)
    )
    with pytest.raises(HttpError) as err:
        parse(b"GET / HTTP/1.1\r\n" + headers + b"\r\n")
    assert err.value.status == 431


def test_oversized_body_is_413():
    raw = (
        b"POST / HTTP/1.1\r\nContent-Length: "
        + str(MAX_BODY_BYTES + 1).encode()
        + b"\r\n\r\n"
    )
    with pytest.raises(HttpError) as err:
        parse(raw)
    assert err.value.status == 413


def test_chunked_transfer_encoding_is_501():
    with pytest.raises(HttpError) as err:
        parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
    assert err.value.status == 501


def test_truncated_body_is_400():
    with pytest.raises(HttpError) as err:
        parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
    assert err.value.status == 400


@pytest.mark.parametrize(
    "length_headers",
    [
        b"Content-Length: +1_0 \r\n",
        b"Content-Length: 5\r\nContent-Length: 3\r\n",
    ],
    ids=["not-1*DIGIT", "repeated"],
)
def test_ambiguous_content_length_is_400(length_headers):
    """RFC 9112 section 6.3: a Content-Length that is not 1*DIGIT, or
    that is sent twice, leaves the body boundary unknown; refuse it."""
    raw = b"POST / HTTP/1.1\r\n" + length_headers + b"\r\n" + b"x" * 10
    with pytest.raises(HttpError) as err:
        parse(raw)
    assert err.value.status == 400


def test_keep_alive_defaults():
    r11 = Request("GET", "/", "/", {}, {})
    assert r11.keep_alive
    r11_close = Request("GET", "/", "/", {}, {"connection": "close"})
    assert not r11_close.keep_alive
    r10 = Request("GET", "/", "/", {}, {}, http_version="HTTP/1.0")
    assert not r10.keep_alive
    r10_ka = Request(
        "GET", "/", "/", {"": ""}, {"connection": "keep-alive"},
        http_version="HTTP/1.0",
    )
    assert r10_ka.keep_alive


def test_typed_query_params_raise_400():
    request = Request("GET", "/", "/", {"gpus": "many"}, {})
    with pytest.raises(HttpError) as err:
        request.int_param("gpus")
    assert err.value.status == 400
    request = Request("GET", "/", "/", {"simple": "maybe"}, {})
    with pytest.raises(HttpError):
        request.bool_param("simple")


def test_response_encode_has_exact_framing():
    wire = Response.json({"b": 1, "a": 2}).encode(keep_alive=True)
    head, _, body = wire.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"Connection: keep-alive" in head
    length = [
        line for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length")
    ]
    assert length == [b"Content-Length: %d" % len(body)]
    # canonical body: sorted keys
    assert body == b'{"a": 2, "b": 1}\n'


def test_canonical_json_coerces_numpy_scalars():
    np = pytest.importorskip("numpy")
    assert canonical_json({"x": np.float64(1.5)}) == b'{"x": 1.5}\n'
    assert canonical_json({"n": np.int64(3)}) == b'{"n": 3}\n'


def test_http_error_response_carries_retry_after():
    response = HttpError(503, "overload", retry_after=12.4).response()
    assert response.status == 503
    assert ("Retry-After", "12") in response.headers


#: Valid requests the fuzzer mutates: a GET with a query, a POST with a
#: JSON body, an HTTP/1.0 request with bare-LF line ends.
VALID_REQUESTS = [
    b"GET /v1/ettr?size=1024&verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n",
    b"POST /v1/whatif/checkpoint-cadence HTTP/1.1\r\nHost: x\r\n"
    b"Content-Type: application/json\r\nContent-Length: 15\r\n\r\n"
    b'{"n_gpus": 512}',
    b"GET /v1/health HTTP/1.0\nConnection: keep-alive\n\n",
]
#: Fragments that reach the parser's branches: framing, limits,
#: separators, and targets ``urlsplit`` rejects.
FRAGMENTS = [
    b"\r\n", b"\n", b"\r", b":", b" ", b"\x00", b"\xff", b"%", b"?", b"#",
    b"HTTP/1.1", b"HTTP/2.0", b"Content-Length: ", b"-1", b"1_0", b"9" * 30,
    b"Transfer-Encoding: chunked\r\n", b"http://[", b"//[::1", b"[",
    b"a" * 9000, b"b" * 70000,
]


@st.composite
def mutated_requests(draw):
    data = bytearray(draw(st.sampled_from(VALID_REQUESTS)))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "replace", "cut"]))
        at = draw(st.integers(0, len(data)))
        if op == "cut":
            del data[at:]
            continue
        if op == "delete":
            del data[at: at + draw(st.integers(1, 8))]
            continue
        chunk = draw(
            st.one_of(st.sampled_from(FRAGMENTS), st.binary(max_size=8))
        )
        if op == "replace":
            data[at: at + len(chunk)] = chunk
        else:
            data[at:at] = chunk
    return bytes(data)


@st.composite
def assembled_requests(draw):
    """Requests built from fuzzed parts: method, target (origin- and
    absolute-form), version, headers, body and line ends."""
    eol = draw(st.sampled_from([b"\r\n", b"\n"]))
    target = draw(st.sampled_from(["", "/", "//", "http://", "http://h"]))
    target += draw(st.text(alphabet="/:[]?#%&=@.aZ09-_~ ", max_size=16))
    line = " ".join([
        draw(st.sampled_from(["GET", "POST", "get", "BREW", ""])),
        target,
        draw(st.sampled_from(
            ["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "http/1.1"]
        )),
    ])
    headers = draw(st.lists(
        st.tuples(
            st.sampled_from([
                "Host", "Content-Length", "Transfer-Encoding", "Connection",
                "X-Pad", "",
            ]),
            st.text(alphabet="0123456789-+_ abc\t", max_size=8),
        ),
        max_size=4,
    ))
    head = [line] + [f"{name}:{value}" for name, value in headers]
    return (
        eol.join(part.encode("latin-1") for part in head)
        + eol + eol + draw(st.binary(max_size=32))
    )


@given(raw=st.one_of(
    st.binary(max_size=256), mutated_requests(), assembled_requests()
))
@example(raw=b"GET http://[/ HTTP/1.1\r\n\r\n")
@example(raw=b"POST / HTTP/1.1\r\nContent-Length: +1_0 \r\n\r\n" + b"x" * 10)
@example(
    raw=b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n"
    b"\r\nxxxxx"
)
@example(raw=b"GET / HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n")
@example(raw=b"GET / HTTP/1.1\r\nX: " + b"v" * 70000 + b"\r\n\r\n")
@settings(deadline=None, max_examples=600)
def test_arbitrary_bytes_parse_or_fail_cleanly(raw):
    """Whatever arrives, ``read_request`` returns a Request, returns None
    (clean EOF), or raises HttpError with a status the protocol names."""
    try:
        request = parse(raw)
    except HttpError as err:
        assert err.status in {400, 413, 431, 501}, err.status
        return
    assert request is None or isinstance(request, Request)
    if request is None:
        assert raw == b""
