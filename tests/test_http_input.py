"""Malformed HTTP framing gets a 4xx answer, never a 500 or a held thread."""

import http.client
import json
import logging
import socket
import struct
import time
from contextlib import contextmanager

import pytest

from eduwarehouse.auth import RegistryEntry, TenantRegistry, hash_secret
from eduwarehouse.config import GatewayConfig
from eduwarehouse.schema import builtin_schema
from eduwarehouse.service import ServiceThread, _Handler
from eduwarehouse.store import SegmentStore

from conftest import DEMO_TERM, DIM_UPLOADS, U1, ingest_demo_fixture


@contextmanager
def _serving(tmp_path, **options):
    """A gateway for tenant uni1 whose refresher never fires by itself."""
    root = tmp_path / "wh"
    SegmentStore(root, builtin_schema())
    TenantRegistry.from_entries(
        [RegistryEntry("uni1", hash_secret("pw-one", iterations=1000), U1)]
    ).save(root / "registry.csv")
    cfg = GatewayConfig(warehouse_root=root, listen_port=0,
                        cube_refresh_interval=3600.0, worker_pool_size=1, **options)
    with ServiceThread(cfg) as st:
        yield st


@pytest.fixture
def address(tmp_path):
    with _serving(tmp_path) as st:
        yield st.address


def _post(address, path, body, length, token=None):
    """POST with a verbatim Content-Length; a stuck handler trips the timeout."""
    conn = http.client.HTTPConnection(*address, timeout=5)
    try:
        conn.putrequest("POST", path, skip_accept_encoding=True)
        conn.putheader("Content-Length", length)
        if token:
            conn.putheader("Authorization", f"Bearer {token}")
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _token(address):
    body = json.dumps({"login": "uni1", "secret": "pw-one"}).encode()
    status, raw = _post(address, "/auth", body, str(len(body)))
    assert status == 200, raw
    return json.loads(raw)["token"]


@pytest.mark.parametrize("length", ["abc", "1e3", "-1", "+5", "0x10", ""])
@pytest.mark.parametrize("path", ["/auth", "/upload?table=Times"])
def test_bad_content_length_is_400(address, path, length):
    token = _token(address) if path.startswith("/upload") else None
    status, raw = _post(address, path, b"time_code,year,term\n", length, token)
    assert status == 400, raw
    assert "Content-Length" in json.loads(raw)["error"]
    # the service keeps answering
    assert _token(address)


def _upload_head(token, length, expect=False):
    """Request line and headers of a raw Regtypes upload."""
    head = (f"POST /upload?table=Regtypes HTTP/1.1\r\nHost: eduwh\r\n"
            f"Authorization: Bearer {token}\r\nContent-Length: {length}\r\n")
    if expect:
        head += "Expect: 100-continue\r\n"
    return (head + "\r\n").encode()


def test_short_upload_body_is_refused_and_not_committed(tmp_path):
    with _serving(tmp_path) as st:
        token = _token(st.address)
        body = DIM_UPLOADS["Regtypes"].encode()
        cut = body[: body.index(b"\n", body.index(b"\n") + 1) + 1]  # header + 1 of 3 rows
        with socket.create_connection(st.address, timeout=5) as sock:
            sock.sendall(_upload_head(token, len(body)) + cut)
            sock.shutdown(socket.SHUT_WR)  # the client stops short of its length
            reply = sock.makefile("rb").read()
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert f"body ended after {len(cut)} of {len(body)} bytes".encode() in reply
        assert st.service.store.segments("Regtypes") == []
        assert list(st.service.store.staging_path("x").parent.iterdir()) == []


@pytest.fixture
def small_limit_address(tmp_path):
    with _serving(tmp_path, upload_limit=1024) as st:
        yield st.address


@pytest.mark.parametrize("length, status", [("2000", 413), (None, 411)])
def test_refused_body_is_not_read_as_the_next_request(small_limit_address, length, status):
    token = _token(small_limit_address)
    auth = {"Authorization": f"Bearer {token}"}
    body = b"time_code,year,term\n" + b"T1,2020,1\n" * 198  # 2,000 bytes
    conn = http.client.HTTPConnection(*small_limit_address, timeout=5)
    try:
        conn.putrequest("POST", "/upload?table=Times", skip_accept_encoding=True)
        if length is not None:
            conn.putheader("Content-Length", length)
        conn.putheader("Authorization", auth["Authorization"])
        conn.endheaders(body)
        resp = conn.getresponse()
        assert resp.status == status, resp.read()
        resp.read()
        # same connection object: the next request must not meet the old body
        conn.request("GET", "/reports", headers=auth)
        resp = conn.getresponse()
        assert resp.status == 200, resp.read()
    finally:
        conn.close()


@pytest.mark.parametrize("length, status", [("4000000", b"413"), ("4e6", b"400")])
def test_refused_expect_100_body_is_not_invited(small_limit_address, length, status):
    token = _token(small_limit_address)
    with socket.create_connection(small_limit_address, timeout=5) as sock:
        sock.sendall(_upload_head(token, length, expect=True))
        reply = sock.makefile("rb")
        # the refusal is the first status line; the server then closes
        assert reply.readline().startswith(b"HTTP/1.1 " + status + b" ")
        assert b"100 Continue" not in reply.read()


def test_oversized_body_sent_without_expect_gets_its_413(small_limit_address):
    # the client writes the whole body before it reads; a close with the
    # body unread would reset the connection under it
    # ~12 MB: more than loopback socket buffers take, less than the drain reads
    body = b"regtype_code,regtype_name\n" + b"FT,Full time\n" * 900_000
    status, raw = _post(small_limit_address, "/upload?table=Regtypes", body,
                        str(len(body)), _token(small_limit_address))
    assert status == 413, raw
    assert json.loads(raw)["upload_limit"] == 1024


@pytest.mark.parametrize("token, table, status", [
    (False, "Regtypes", 401), (True, "Nope", 400), (True, None, 400),
])
def test_upload_refused_before_its_body_is_read_gets_its_answer(address, token, table,
                                                                 status):
    # as with a 413: the body is drained so that a client still writing it
    # reads the refusal instead of a reset
    body = b"regtype_code,regtype_name\n" + b"FT,Full time\n" * 900_000  # ~12 MB
    path = "/upload" if table is None else f"/upload?table={table}"
    got, raw = _post(address, path, body, str(len(body)),
                     _token(address) if token else None)
    assert got == status, raw


@pytest.mark.parametrize("token, table, status", [
    (False, "Regtypes", b"401"), (True, "Nope", b"400"), (True, None, b"400"),
])
def test_upload_refused_before_its_body_is_read_is_not_invited(address, token, table,
                                                               status):
    # a client that waits for 100 Continue sends its ~12 MB body once
    # invited; an invited body the server then refuses unread breaks the send
    body = b"regtype_code,regtype_name\n" + b"FT,Full time\n" * 900_000
    path = "/upload" if table is None else f"/upload?table={table}"
    auth = f"Authorization: Bearer {_token(address)}\r\n" if token else ""
    head = (f"POST {path} HTTP/1.1\r\nHost: eduwh\r\n{auth}"
            f"Content-Length: {len(body)}\r\nExpect: 100-continue\r\n\r\n")
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(head.encode())
        reply = sock.makefile("rb")
        first = reply.readline()
        if first == b"HTTP/1.1 100 Continue\r\n":
            reply.readline()
            sock.sendall(body)
            first = reply.readline()
        # the refusal is the first status line; the server then closes
        assert first.startswith(b"HTTP/1.1 " + status + b" "), first
        assert b"100 Continue" not in reply.read()


def test_oversized_auth_body_is_not_drained(address):
    # /auth needs no session: a declared body over its limit is refused and
    # the connection closed at once, with none of the body read
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(b"POST /auth HTTP/1.1\r\nHost: eduwh\r\n"
                     b"Content-Length: 4000000\r\n\r\n")
        reply = sock.makefile("rb").read()  # a drain would wait for the body
    assert reply.startswith(b"HTTP/1.1 413 "), reply


def test_accepted_expect_100_body_is_invited(address):
    token = _token(address)
    body = DIM_UPLOADS["Regtypes"].encode()
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(_upload_head(token, len(body), expect=True))
        reply = sock.makefile("rb")
        assert reply.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert reply.readline() == b"\r\n"
        sock.sendall(body)
        assert reply.readline().startswith(b"HTTP/1.1 200 ")


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_text_response_announces_a_close(tmp_path, fmt):
    with _serving(tmp_path) as st:
        ingest_demo_fixture(st.service.pipeline, tmp_path)
        st.service.refresher.run_once()
        conn = http.client.HTTPConnection(*st.address, timeout=5)
        try:
            conn.request(
                "GET", f"/report/avg_marks_by_regtype?time_code={DEMO_TERM}&format={fmt}",
                headers={"Authorization": f"Bearer {_token(st.address)}",
                         "Connection": "close"},
            )
            resp = conn.getresponse()
            assert resp.status == 200, resp.read()
            assert resp.getheader("Connection") == "close"
            resp.read()
        finally:
            conn.close()


def test_client_reset_is_logged_not_printed(address, caplog, capfd):
    caplog.set_level(logging.DEBUG, logger="eduwarehouse.service")
    conn = http.client.HTTPConnection(*address, timeout=5)
    conn.request("GET", "/reports", headers={"Authorization": f"Bearer {_token(address)}"})
    resp = conn.getresponse()
    assert resp.status == 200, resp.read()
    resp.read()
    # close the kept-alive connection with a reset while the server waits
    # for its next request line
    conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    conn.close()

    def dropped():
        return [r for r in caplog.records if "dropped" in r.getMessage()]

    deadline = time.monotonic() + 2
    while not dropped() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert [r.levelno for r in dropped()] == [logging.DEBUG]
    assert "Traceback" not in capfd.readouterr().err


def test_answer_before_the_body_is_read_closes(address):
    token = _token(address)
    smuggled = b"POST /nope HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
    conn = http.client.HTTPConnection(*address, timeout=5)
    try:
        # no session token: the 401 is sent with the body still unread
        conn.request("POST", "/upload?table=Times", body=smuggled)
        resp = conn.getresponse()
        assert resp.status == 401, resp.read()
        assert resp.getheader("Connection") == "close"
        resp.read()
        # same connection object: the next request must not meet the old body
        conn.request("GET", "/reports", headers={"Authorization": f"Bearer {token}"})
        resp = conn.getresponse()
        assert resp.status == 200, resp.read()
    finally:
        conn.close()


def test_client_gone_mid_body_logs_no_error(address, caplog):
    caplog.set_level(logging.DEBUG, logger="eduwarehouse.service")
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(b"POST /auth HTTP/1.1\r\nHost: eduwh\r\n"
                     b"Content-Length: 1000\r\n\r\n" + b"{" * 10)
        time.sleep(0.2)  # the handler is now blocked reading the body
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

    def dropped():
        return [r for r in caplog.records if "dropped" in r.getMessage()]

    deadline = time.monotonic() + 2
    while not dropped() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert dropped(), "the reset was never seen"
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []


def test_stalled_body_is_closed_after_the_timeout(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(_Handler, "timeout", 0.3)
    caplog.set_level(logging.DEBUG, logger="eduwarehouse.service")
    with _serving(tmp_path) as st:
        token = _token(st.address)
        with socket.create_connection(st.address, timeout=5) as sock:
            sock.sendall(_upload_head(token, 1000) + DIM_UPLOADS["Regtypes"][:10].encode())
            t0 = time.monotonic()
            reply = sock.makefile("rb").read()  # returns when the server closes
            waited = time.monotonic() - t0
        # closed without an answer: the client stalled, it did not err
        assert reply == b"", reply
        assert waited < 1.0, waited
        assert st.service.store.segments("Regtypes") == []
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []
