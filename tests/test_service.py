"""HTTP service: auth, uploads, reports, and tenant isolation over real sockets."""

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from eduwarehouse.auth import RegistryEntry, TenantRegistry, hash_secret
from eduwarehouse.config import GatewayConfig
from eduwarehouse.schema import builtin_schema
from eduwarehouse.service import ServiceThread
from eduwarehouse.store import SegmentStore

from conftest import (
    DIM_UPLOADS, DEMO_FACTS, DEMO_TERM, PERF_HEADER, U1, U2, commit_earlier_layout_cube,
)

GOLDEN_CSV = (
    "time_code,regtype_code,avg_marks\n"
    "2016-17-SPR,DL,60\n"
    "2016-17-SPR,FT,85\n"
    "2016-17-SPR,PT,72\n"
    "2016-17-SPR,ALL,74.8\n"
)

REPORT_PATH = f"/report/avg_marks_by_regtype?time_code={DEMO_TERM}&format=csv"


def _make_root(tmp_path):
    root = tmp_path / "wh"
    SegmentStore(root, builtin_schema())
    TenantRegistry.from_entries([
        RegistryEntry("uni1", hash_secret("pw-one", iterations=1000), U1),
        RegistryEntry("uni2", hash_secret("pw-two", iterations=1000), U2),
    ]).save(root / "registry.csv")
    return root


@pytest.fixture
def service(tmp_path):
    """Running service with a fast cube refresher."""
    cfg = GatewayConfig(
        warehouse_root=_make_root(tmp_path), listen_port=0,
        cube_refresh_interval=0.2, session_ttl=60.0,
        upload_limit=64 * 1024, worker_pool_size=1,
    )
    with ServiceThread(cfg) as st:
        host, port = st.address
        yield f"http://{host}:{port}", st


@pytest.fixture
def cold_service(tmp_path):
    """Service whose refresher never fires during the test."""
    cfg = GatewayConfig(
        warehouse_root=_make_root(tmp_path), listen_port=0,
        cube_refresh_interval=3600.0, session_ttl=60.0, worker_pool_size=1,
    )
    with ServiceThread(cfg) as st:
        host, port = st.address
        yield f"http://{host}:{port}", st


def _request(base, path, data=None, token=None, method=None, content_type=None):
    headers = {}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    if content_type:
        headers["Content-Type"] = content_type
    req = urllib.request.Request(
        base + path, data=data, headers=headers,
        method=method or ("POST" if data is not None else "GET"),
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _login(base, login, secret):
    body = json.dumps({"login": login, "secret": secret}).encode()
    status, raw = _request(base, "/auth", body)
    assert status == 200, raw
    return json.loads(raw)["token"]


def _upload(base, token, table, text, query=""):
    status, raw = _request(
        base, f"/upload?table={table}{query}", text.encode(), token=token
    )
    return status, json.loads(raw)


def _load_demo_fixture(base, token, facts=DEMO_FACTS):
    for table, text in DIM_UPLOADS.items():
        status, payload = _upload(base, token, table, text)
        assert status == 200, payload
    perf = PERF_HEADER + "\n" + "".join(",".join(r) + "\n" for r in facts)
    status, payload = _upload(base, token, "StudentPerformance", perf)
    assert status == 200, payload
    return payload


def _poll_report(base, token, path=REPORT_PATH, want=GOLDEN_CSV, deadline=30.0):
    end = time.monotonic() + deadline
    status, raw = None, b""
    while time.monotonic() < end:
        status, raw = _request(base, path, token=token)
        if status == 200 and raw.decode() == want:
            return raw.decode()
        time.sleep(0.1)
    raise AssertionError(f"report never converged: last status={status} body={raw[:200]!r}")


# ---- auth ----

def test_auth_and_reports_listing(service):
    base, _ = service
    token = _login(base, "uni1", "pw-one")
    status, raw = _request(base, "/reports", token=token)
    assert status == 200
    ids = [r["report_id"] for r in json.loads(raw)["reports"]]
    assert "avg_marks_by_regtype" in ids and len(ids) == 3


def test_failed_logins_are_byte_identical(service):
    base, _ = service
    s1, b1 = _request(base, "/auth", json.dumps({"login": "ghost", "secret": "pw-one"}).encode())
    s2, b2 = _request(base, "/auth", json.dumps({"login": "uni1", "secret": "wrong"}).encode())
    assert s1 == s2 == 401
    assert b1 == b2


def test_auth_requires_json_body(service):
    base, _ = service
    status, raw = _request(base, "/auth", b"login=uni1")
    assert status == 400
    assert "login and secret" in json.loads(raw)["error"]


def test_data_endpoints_require_token(service):
    base, _ = service
    assert _request(base, "/reports")[0] == 401
    assert _request(base, "/reports", token="bogus")[0] == 401
    assert _request(base, "/upload?table=Times", b"x", token="bogus")[0] == 401


# ---- uploads ----

def test_upload_commit_payload_fields(service):
    base, _ = service
    token = _login(base, "uni1", "pw-one")
    status, payload = _upload(base, token, "Times", DIM_UPLOADS["Times"])
    assert status == 200
    assert payload["batch_id"] == 1
    assert payload["rows_in"] == payload["rows_out"] == 2
    assert payload["errors"] == []
    assert payload["effective_ms"] >= 0 and payload["cumulative_ms"] >= 0


def test_upload_rejection_reports_line_numbers(service):
    base, st = service
    token = _login(base, "uni1", "pw-one")
    bad = PERF_HEADER + (
        "\ns1,CS101,T1,FT,80,95,A"     # line 2 fine
        "\ns2,CS101,T1,FT,oops,95,A"   # line 3 bad marks
        "\ns3,CS101,T1,FT,70,95,A"     # line 4 fine
        "\ns4,ALL,T1,FT,70,95,A\n"     # line 5 reserved value
    )
    status, payload = _upload(base, token, "StudentPerformance", bad)
    assert status == 422
    assert payload["batch_id"] is None
    assert [(e["line_number"], e["reason"]) for e in payload["errors"]] == [
        (3, "not-numeric:marks"),
        (5, "reserved-value:course_code"),
    ]
    assert payload["errors"][0]["tenant_key_value"] == "s2"
    assert st.service.store.segments("StudentPerformance") == []


def test_upload_validation_errors(service):
    base, _ = service
    token = _login(base, "uni1", "pw-one")
    assert _request(base, "/upload", b"x", token=token)[0] == 400
    assert _request(base, "/upload?table=Nope", b"x", token=token)[0] == 400


def test_oversize_upload_rejected_with_limit(service):
    base, _ = service
    token = _login(base, "uni1", "pw-one")
    status, raw = _request(base, "/upload?table=Times", b"x" * 70_000, token=token)
    payload = json.loads(raw)
    assert status == 413
    assert payload["upload_limit"] == 64 * 1024
    assert "exceeds the configured limit" in payload["error"]


def test_missing_content_length_411(service):
    base, _ = service
    token = _login(base, "uni1", "pw-one")
    host, port = base[len("http://"):].rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.putrequest("POST", "/upload?table=Times", skip_accept_encoding=True)
        conn.putheader("Authorization", f"Bearer {token}")
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 411
        resp.read()
    finally:
        conn.close()


def test_multipart_upload(service):
    base, st = service
    token = _login(base, "uni1", "pw-one")
    boundary = "eduwhboundary42"
    body = (
        f"--{boundary}\r\n"
        'Content-Disposition: form-data; name="file"; filename="times.csv"\r\n'
        "Content-Type: text/csv\r\n\r\n"
    ).encode() + DIM_UPLOADS["Times"].encode() + f"\r\n--{boundary}--\r\n".encode()
    status, raw = _request(
        base, "/upload?table=Times", body, token=token,
        content_type=f"multipart/form-data; boundary={boundary}",
    )
    assert status == 200, raw
    assert json.loads(raw)["rows_out"] == 2
    stored = st.service.store.segments("Times")[-1].path.read_text()
    assert "University1_2016-17-SPR" in stored


def test_multipart_without_file_part(service):
    base, _ = service
    token = _login(base, "uni1", "pw-one")
    boundary = "b"
    body = f"--{boundary}--\r\n".encode()
    status, raw = _request(
        base, "/upload?table=Times", body, token=token,
        content_type=f"multipart/form-data; boundary={boundary}",
    )
    assert status == 400
    assert "no file part" in json.loads(raw)["error"]


# ---- reports ----

def test_upload_becomes_visible_after_refresh(service):
    base, _ = service
    token = _login(base, "uni1", "pw-one")
    _load_demo_fixture(base, token)
    assert _poll_report(base, token) == GOLDEN_CSV


def test_report_json_and_table_formats(service):
    base, _ = service
    token = _login(base, "uni1", "pw-one")
    _load_demo_fixture(base, token)
    _poll_report(base, token)

    path = f"/report/avg_marks_by_regtype?time_code={DEMO_TERM}"
    status, raw = _request(base, path, token=token)
    payload = json.loads(raw)
    assert status == 200
    assert payload["columns"] == ["time_code", "regtype_code", "avg_marks"]
    assert payload["rows"][-1] == [DEMO_TERM, "ALL", "74.8"]
    assert payload["cube_version"] >= 1

    status, raw = _request(base, path + "&format=table", token=token)
    assert status == 200 and raw.decode().splitlines()[0].startswith("time_code")

    status, raw = _request(base, path + "&format=xml", token=token)
    assert status == 400


def test_report_error_statuses(service, cold_service):
    base, _ = service
    token = _login(base, "uni1", "pw-one")
    assert _request(base, "/report/nope", token=token)[0] == 400
    assert _request(base, "/report/avg_marks_by_regtype", token=token)[0] == 400
    assert _request(base, "/nope", token=token)[0] == 404
    assert _request(base, "/nope", b"x", token=token)[0] == 404

    cold_base, _ = cold_service
    cold_token = _login(cold_base, "uni1", "pw-one")
    status, raw = _request(cold_base, REPORT_PATH, token=cold_token)
    assert status == 409
    assert "has not been built" in json.loads(raw)["error"]


def test_cube_in_an_earlier_layout_is_409(cold_service):
    base, st = cold_service
    commit_earlier_layout_cube(st.service.store)
    status, raw = _request(base, REPORT_PATH, token=_login(base, "uni1", "pw-one"))
    assert status == 409, raw
    assert "another layout" in json.loads(raw)["error"]


# ---- tenant isolation ----

def test_forged_university_key_params_are_ignored(service):
    base, st = service
    token1 = _login(base, "uni1", "pw-one")
    token2 = _login(base, "uni2", "pw-two")
    _load_demo_fixture(base, token1)

    # tenant 2 uploads while claiming to be tenant 1; the claim is ignored
    for table, text in DIM_UPLOADS.items():
        _upload(base, token2, table, text, query="&university_key=University1")
    perf = PERF_HEADER + "\nz1,CS101,2016-17-SPR,FT,10,50,F\n"
    status, payload = _upload(base, token2, "StudentPerformance", perf,
                              query="&university_key=University1&tenant=University1")
    assert status == 200, payload

    stored = b"".join(
        seg.path.read_bytes() for seg in st.service.store.segments("StudentPerformance")
    ).decode()
    for line in stored.splitlines():
        if line.startswith("University2,"):
            assert ",z1," in line
        assert not (line.startswith("University1,") and ",z1," in line)

    # tenant 1's report stays the worked fixture even with forged params
    forged = REPORT_PATH + "&university_key=University2&tenant=University2"
    assert _poll_report(base, token1, path=forged) == GOLDEN_CSV

    want2 = ("time_code,regtype_code,avg_marks\n"
             f"{DEMO_TERM},FT,10\n{DEMO_TERM},ALL,10\n")
    assert _poll_report(base, token2, want=want2) == want2


def test_sessions_are_not_interchangeable(service):
    base, _ = service
    token1 = _login(base, "uni1", "pw-one")
    _load_demo_fixture(base, token1)
    token2 = _login(base, "uni2", "pw-two")
    _poll_report(base, token1)

    # tenant 2 sees an empty report, never tenant 1's rows
    status, raw = _request(base, REPORT_PATH, token=token2)
    assert status == 200
    assert raw.decode() == "time_code,regtype_code,avg_marks\n"
