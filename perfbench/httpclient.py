"""Keep-alive HTTP client used by the benchmark's load generators."""

from __future__ import annotations

import http.client


class Client:
    """One persistent connection to the gateway; reconnects after an error.

    Not thread-safe: each load-generating thread owns its own client.
    """

    def __init__(self, address: tuple[str, int], timeout: float = 120.0):
        self.host, self.port = address
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def call(self, method: str, path: str, body: bytes | None = None,
             token: str | None = None) -> tuple[int, bytes]:
        headers = {}
        if token:
            headers["Authorization"] = f"Bearer {token}"
        if body is not None:
            headers["Content-Type"] = "text/csv"
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
