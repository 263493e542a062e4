"""Tenant-facing HTTP endpoint.

A thin request/response layer over the warehouse: authenticate to get a
session token, upload CSV batches, list and render reports.  Every data
endpoint derives its tenant scope from the session token alone; any
university_key supplied in a request is ignored.  Cubes refresh on a
background interval, so uploaded data appears in reports after the next
rebuild rather than immediately.

Payloads are JSON with stable field names (batch_id, rows_in, rows_out,
effective_ms, cumulative_ms, errors[]); report bodies can also be fetched
as CSV or an aligned table via ?format=.
"""

from __future__ import annotations

import email
import email.policy
import json
import logging
import sys
import threading
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from .errors import AuthenticationError, StorageError, ValidationError
from .schema import builtin_schema
from .store import SegmentStore
from .etl import EtlPipeline
from .cube import CubeEngine, CubeRefresher, builtin_cube_specs
from .olap import QueryEngine
from .auth import SessionManager, TenantRegistry, authenticate
from .config import GatewayConfig

logger = logging.getLogger(__name__)

_MAX_AUTH_BODY = 64 * 1024
# bytes of an upload refused as too large that are read and discarded before
# the connection closes, so a client still sending it can read the 413
_MAX_DRAIN = 16 * 1024 * 1024

# request fields the service never trusts; scope comes from the session
_IGNORED_PARAMS = {"university_key", "tenant", "format"}


class TenantService:
    """Shared state behind the HTTP handler: store, sessions, engines."""

    def __init__(self, config: GatewayConfig):
        self.config = config
        self.store = SegmentStore(config.warehouse_root, builtin_schema())
        self.registry = TenantRegistry.load(config.registry_path)
        self.sessions = SessionManager(config.session_ttl)
        self.pipeline = EtlPipeline(
            self.store, config.split_config(), config.worker_pool_size
        )
        self.query = QueryEngine(self.store)
        self.refresher = CubeRefresher(
            CubeEngine(self.store, config.worker_pool_size, config.s_b),
            builtin_cube_specs().values(),
            config.cube_refresh_interval,
        )

    def start(self) -> None:
        self.refresher.start()

    def stop(self) -> None:
        self.refresher.stop()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "eduwh"
    # seconds a socket read or write may stall before the connection is
    # closed, so an idle or stalled client cannot hold its thread forever
    timeout = 60
    _body_unread = False

    @property
    def svc(self) -> TenantService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:
        logger.info("%s %s", self.address_string(), fmt % args)

    def _send(
        self, status: int, body: dict | str, content_type: str = "application/json"
    ) -> None:
        """Write one response: a dict body as JSON, a str body as UTF-8 text."""
        if isinstance(body, dict):
            data = json.dumps(body).encode("utf-8")
        else:
            data = body.encode("utf-8")
            content_type += "; charset=utf-8"
        if self._body_unread:
            # the body would be parsed as the next request on this connection
            self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def parse_request(self) -> bool:
        if not super().parse_request():
            return False
        # a declared body stays unread until _read_body takes all of it
        self._body_unread = (self.headers.get("Content-Length", "0") != "0"
                             or "Transfer-Encoding" in self.headers)
        return True

    def _context(self):
        header = self.headers.get("Authorization", "")
        scheme, _, token = header.partition(" ")
        if scheme.lower() != "bearer" or not token.strip():
            return None
        return self.svc.sessions.resolve(token.strip())

    def _body_refusal(self) -> tuple[int, dict] | None:
        """The answer that refuses this request's body unread, if any.

        Each route has one body limit: the configured ``upload_limit`` for
        ``/upload``, a small fixed one for everything else.
        """
        length = self.headers.get("Content-Length")
        if length is None:
            return 411, {"error": "Content-Length required"}
        if not (length.isascii() and length.isdigit()):
            return 400, {"error": "Content-Length must be a non-negative integer"}
        if urlsplit(self.path).path == "/upload":
            limit = self.svc.config.upload_limit
        else:
            limit = _MAX_AUTH_BODY
        if int(length) > limit:
            return 413, {"error": f"upload exceeds the configured limit of {limit} bytes",
                         "upload_limit": limit}
        return None

    def _upload_refusal(self, ctx, params: dict) -> tuple[int, dict] | None:
        """The answer that refuses an upload before its body is read, if any:
        no session ``ctx`` (no valid token), or a missing or unknown
        ``table``."""
        if ctx is None:
            return 401, {"error": "missing or expired session token"}
        table = params.get("table")
        if not table:
            return 400, {"error": "query parameter table is required"}
        if table not in self.svc.store.schema.tables:
            return 400, {"error": f"unknown table {table!r}"}
        return None

    def handle_expect_100(self) -> bool:
        # invite the body only when it will be read; otherwise do_POST
        # answers the refusal straight away (RFC 9110 §10.1.1)
        url = urlsplit(self.path)
        if self._body_refusal() is None and not (
                self.command == "POST" and url.path == "/upload"
                and self._upload_refusal(self._context(), dict(parse_qsl(url.query)))):
            return super().handle_expect_100()
        return True

    def _read_body(self, drain_if_too_large: bool = False) -> bytes | None:
        # a refused body stays unread and would be parsed as the next
        # request, and a short one is an incomplete message, so each
        # refusal closes the connection; an upload's refused body is first
        # drained unless the client waits for 100 Continue
        refusal = self._body_refusal()
        if refusal is None:
            length = int(self.headers["Content-Length"])
            raw = self.rfile.read(length)
            if len(raw) == length:
                self._body_unread = False
                return raw
            refusal = 400, {"error": f"body ended after {len(raw)} of {length} bytes"}
        self.close_connection = True
        if drain_if_too_large and refusal[0] == 413:
            self._refuse_upload(*refusal)
        else:
            self._send(*refusal)
        return None

    def _refuse_upload(self, status: int, body: dict) -> None:
        """Answer an upload whose body stays unread, then drain that body.

        Closing with unread bytes resets the connection, and a client that
        is still writing its body never reads the answer (RFC 9112 §9.6).
        So a body of valid length is read and dropped, up to _MAX_DRAIN,
        unless the client waits for 100 Continue and so sends no body.
        """
        self._send(status, body)
        length = self.headers.get("Content-Length", "")
        if (length.isascii() and length.isdigit()
                and self.headers.get("Expect", "").lower() != "100-continue"):
            self._drain(int(length))

    def _drain(self, length: int) -> None:
        remaining = min(length, _MAX_DRAIN)
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 64 * 1024))
            if not chunk:
                break
            remaining -= len(chunk)

    def _dropped(self, exc: OSError) -> None:
        # the client is gone or stalled past the timeout: nothing is sent
        logger.debug("connection from %s dropped: %r", self.client_address, exc)
        self.close_connection = True

    # ---- routes ----

    def do_POST(self) -> None:
        url = urlsplit(self.path)
        try:
            if url.path == "/auth":
                self._post_auth()
            elif url.path == "/upload":
                self._post_upload(dict(parse_qsl(url.query)))
            else:
                self._send(404, {"error": f"no such endpoint {url.path}"})
        except ValidationError as exc:
            self._send(400, {"error": str(exc)})
        except (ConnectionError, TimeoutError) as exc:
            self._dropped(exc)
        except Exception:
            logger.exception("unhandled error serving %s", self.path)
            self._send(500, {"error": "internal error"})

    def do_GET(self) -> None:
        url = urlsplit(self.path)
        try:
            ctx = self._context()
            if ctx is None:
                self._send(401, {"error": "missing or expired session token"})
            elif url.path == "/reports":
                self._send(200, {"reports": list(self.svc.query.list_reports())})
            elif url.path.startswith("/report/"):
                self._get_report(ctx, url)
            else:
                self._send(404, {"error": f"no such endpoint {url.path}"})
        except ValidationError as exc:
            self._send(400, {"error": str(exc)})
        except StorageError as exc:
            self._send(409, {"error": str(exc)})
        except (ConnectionError, TimeoutError) as exc:
            self._dropped(exc)
        except Exception:
            logger.exception("unhandled error serving %s", self.path)
            self._send(500, {"error": "internal error"})

    def _post_auth(self) -> None:
        raw = self._read_body()
        if raw is None:
            return
        try:
            payload = json.loads(raw.decode("utf-8"))
            login, secret = payload["login"], payload["secret"]
        except (ValueError, KeyError, TypeError):
            self._send(400, {"error": "body must be JSON with login and secret"})
            return
        try:
            ctx = authenticate(self.svc.registry, self.svc.sessions, str(login), str(secret))
        except AuthenticationError as exc:
            self._send(401, {"error": str(exc)})
            return
        self._send(200, {"token": ctx.session_id,
                         "expires_in": self.svc.config.session_ttl})

    def _post_upload(self, params: dict) -> None:
        ctx = self._context()
        refusal = self._upload_refusal(ctx, params)
        if refusal is not None:
            self._refuse_upload(*refusal)
            return
        table = params["table"]
        raw = self._read_body(drain_if_too_large=True)
        if raw is None:
            return
        content_type = self.headers.get("Content-Type", "")
        if content_type.startswith("multipart/"):
            raw = _multipart_file(raw, content_type)
            if raw is None:
                self._send(400, {"error": "multipart body has no file part"})
                return
        staged = self.svc.store.staging_path(f"upload_{uuid.uuid4().hex}.csv")
        staged.write_bytes(raw)
        try:
            result = self.svc.pipeline.run(staged, table, ctx.university_key)
        finally:
            staged.unlink(missing_ok=True)
        payload = {
            "table": table,
            "batch_id": result.segment.batch_id if result.committed else None,
            "rows_in": result.rows_in,
            "rows_out": result.rows_out,
            "effective_ms": round(result.effective_time * 1000, 3),
            "cumulative_ms": round(result.cumulative_time * 1000, 3),
            "errors": [
                {"line_number": e.line_number,
                 "tenant_key_value": e.tenant_key_value,
                 "reason": e.reason}
                for e in (result.report.entries if result.report else ())
            ],
        }
        self._send(200 if result.committed else 422, payload)

    def _get_report(self, ctx, url) -> None:
        report_id = url.path[len("/report/"):]
        query = dict(parse_qsl(url.query))
        fmt = query.get("format", "json")
        params = {k: v for k, v in query.items() if k not in _IGNORED_PARAMS}
        result = self.svc.query.generate_report(ctx, report_id, params)
        if fmt == "csv":
            self._send(200, result.to_csv(), "text/csv")
        elif fmt == "table":
            self._send(200, result.to_table(), "text/plain")
        elif fmt == "json":
            self._send(200, {
                "report_id": result.report_id,
                "columns": list(result.columns),
                "rows": [list(r) for r in result.rows],
                "cube_version": result.cube_version,
                "generated_at": result.generated_at,
            })
        else:
            self._send(400, {"error": f"unknown format {fmt!r}"})


def _multipart_file(raw: bytes, content_type: str) -> bytes | None:
    """First file part of a multipart/form-data body, if any."""
    message = email.message_from_bytes(
        b"Content-Type: " + content_type.encode("ascii") + b"\r\n\r\n" + raw,
        policy=email.policy.default,
    )
    for part in message.iter_parts():
        if part.get_filename() or part.get_param("name", header="content-disposition"):
            payload = part.get_payload(decode=True)
            if payload is not None:
                return payload
    return None


class _Server(ThreadingHTTPServer):
    def handle_error(self, request, client_address) -> None:
        """Log a client's reset at debug level; anything else with its
        traceback, through logging rather than straight to stderr."""
        exc = sys.exc_info()[1]
        if isinstance(exc, ConnectionError):
            logger.debug("connection from %s dropped: %r", client_address, exc)
        else:
            logger.exception("error serving a request from %s", client_address)


def make_server(config: GatewayConfig) -> tuple[ThreadingHTTPServer, TenantService]:
    """Bind the service; caller drives serve_forever/shutdown."""
    service = TenantService(config)
    server = _Server((config.listen_host, config.listen_port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    return server, service


def run_service(config: GatewayConfig) -> None:
    """Blocking entry point used by the serve subcommand."""
    server, service = make_server(config)
    service.start()
    host, port = server.server_address[:2]
    print(f"listening on {host}:{port} (warehouse {config.warehouse_root})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
        server.server_close()


class ServiceThread:
    """Run the service on a background thread; used by tests and tooling."""

    def __init__(self, config: GatewayConfig):
        self.server, self.service = make_server(config)
        # shutdown() waits for the serve loop's next poll; a short poll keeps
        # teardown quick (requests are served as they arrive either way)
        self._thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            name="eduwh-service", daemon=True,
        )

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server.server_address[:2]
        return str(host), int(port)

    def __enter__(self) -> "ServiceThread":
        self.service.start()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self._thread.join(5.0)
        self.service.stop()
        self.server.server_close()
