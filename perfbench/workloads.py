"""The benchmark's workloads, driven through the public HTTP gateway.

Each workload starts an in-process ``ServiceThread`` over a fresh warehouse,
loads it in a timed set-up (done ``SETUP_REPEATS`` times; the last one is
kept), then measures for the requested number of seconds.  Client load comes
from at most two threads, each with its own keep-alive connection.  Every
HTTP call counts as attempted; a non-2xx status or an exception counts as
failed.  Report bodies are compared with an oracle computed from the
generated rows, and any mismatch makes the run incorrect.

See README.md beside this file for why each workload exists and which layers
it loads.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import random
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from eduwarehouse.auth import RegistryEntry, TenantRegistry, hash_secret
from eduwarehouse.config import GatewayConfig
from eduwarehouse.service import ServiceThread

from data import (
    COUNTS, MARKS_REPORT, PERFORMANCE, REPORT_PARAMS, TERMS,
    dimension_uploads, expected_reports, remark, rows_match,
    tenant_key, to_csv, unique_fact_rows,
)
from httpclient import Client
from stats import mean, median, percentile

SETUP_REPEATS = 3
IDLE_REFRESH_INTERVAL = 3600.0  # the refresher's own timer never fires
SESSION_TTL = 86400.0

INGEST_ROWS = 100_000

FANOUT_TENANTS = 16
FANOUT_ROWS = 6_250
FANOUT_COUNT_ROWS = 600  # before dedupe; about 370 distinct keys remain
FANOUT_LOADERS = 2  # set-up upload threads, each with its own connection
FANOUT_READERS = 1  # closed-loop clients in the measured window
FANOUT_WARMUP_S = 2.0

_clock = time.perf_counter


def _credentials(i: int) -> tuple[str, str]:
    return f"login{i + 1}", f"secret-{i + 1}"


def make_registry(h: "Harness", n_tenants: int) -> Path:
    """A registry.csv with the default PBKDF2 work factor.

    Made once per run and copied into each warehouse: provisioning tenants
    is not on the measured path, authenticating them is.
    """
    entries = []
    for i in range(n_tenants):
        login, secret = _credentials(i)
        entries.append(RegistryEntry(login, hash_secret(secret), tenant_key(i)))
    path = h.workdir / "registry.csv"
    TenantRegistry.from_entries(entries).save(path)
    return path


class Harness:
    """Per-run state: seed, duration, counters, correctness and tracing."""

    def __init__(self, workdir: Path, seed: int, seconds: float, tracer=None):
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.cube_info: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []
        self.auth_samples: list[float] = []
        self.setup_times: list[float] = []
        self.lag_samples: list[float] = []  # refresh lag of the window's uploads
        self.window = (0.0, 0.0)
        self.notes: dict = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def mismatch(self, message: str) -> None:
        with self._lock:
            if len(self.mismatches) < 20:
                self.mismatches.append(message)
            else:
                self.mismatches[-1] = f"... and more, last: {message}"

    def call(self, client: Client, op: str, method: str, path: str, body=None,
             token=None, samples=None, trace_key=None):
        """One timed, counted HTTP call; returns (payload or None, end time)."""
        request = f"c{next(self._ids)}"
        if self.tracer is not None and trace_key is not None:
            self.tracer.begin_request(trace_key, request)
        start = _clock()
        error = None
        try:
            status, raw = client.call(method, path, body, token)
        except (OSError, http.client.HTTPException) as exc:
            status, raw, error = None, b"", repr(exc)
        end = _clock()
        if self.tracer is not None:
            if trace_key is not None:
                self.tracer.end_request(trace_key)
            self.tracer.client_span(op, request, start, end, status=status)
        ok = status is not None and 200 <= status < 300
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{method} {path.split('?')[0]}: "
                                         f"{error or status} {raw[:200]!r}")
        if not ok:
            return None, end
        if samples is not None:
            samples.append(end - start)
        return json.loads(raw), end

    def setup(self, registry: Path, prepare, n_clients: int = 1):
        """Run ``prepare`` on SETUP_REPEATS fresh deployments; keep the last.

        The benchmark's own inputs are frozen out of the garbage collector
        first, so the program's collections do not traverse them.
        """
        gc.freeze()
        for i in range(SETUP_REPEATS):
            keep = i == SETUP_REPEATS - 1
            root = self.workdir / f"warehouse{i}"
            root.mkdir(parents=True)
            shutil.copyfile(registry, root / "registry.csv")
            t0 = _clock()
            dep = Deployment(self, root, n_clients, traced=keep)
            try:
                info = prepare(dep)
            except BaseException:
                dep.close()
                raise
            self.setup_times.append(_clock() - t0)
            if keep:
                return dep, info
            dep.close()
            shutil.rmtree(root)
        raise AssertionError("unreachable")


class Deployment:
    """One running gateway over one warehouse, seen through HTTP clients."""

    def __init__(self, h: Harness, root: Path, n_clients: int, traced: bool):
        self.h = h
        self.root = root
        config = GatewayConfig(warehouse_root=root, listen_port=0,
                               cube_refresh_interval=IDLE_REFRESH_INTERVAL,
                               session_ttl=SESSION_TTL)
        h.notes.update(cube_refresh_interval_s=config.cube_refresh_interval,
                       etl_workers=config.worker_pool_size, split_bytes=config.s_b)
        self.thread = ServiceThread(config)
        self.service = self.thread.service
        self.traced = traced and h.tracer is not None
        if self.traced:
            h.tracer.install(self.service, h.cube_info)
        self.thread.__enter__()
        self.clients = [Client(self.thread.address) for _ in range(n_clients)]
        self.live_uploads: dict[tuple[str, int], int] = {}  # (table, batch) -> bytes
        self.tenant_of: dict[str, str] = {}  # session token -> tenant key

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.thread.__exit__(None, None, None)
        if self.traced:
            self.h.tracer.uninstall()

    def login(self, i: int, client: int = 0) -> str:
        login, secret = _credentials(i)
        body = json.dumps({"login": login, "secret": secret}).encode()
        payload, _ = self.h.call(self.clients[client], "auth.authenticate", "POST", "/auth",
                                 body, samples=self.h.auth_samples)
        if payload is None:
            raise RuntimeError(f"authentication of {login} failed")
        self.tenant_of[payload["token"]] = tenant_key(i).value
        return payload["token"]

    def upload(self, token: str, table: str, body: bytes, client: int = 0,
               samples=None) -> int | None:
        payload, _ = self.h.call(self.clients[client], "service.upload", "POST",
                                 f"/upload?table={table}", body, token, samples,
                                 trace_key=self.tenant_of[token])
        if payload is None:
            return None
        batch = payload["batch_id"]
        with self.h._lock:
            self.live_uploads[table, batch] = len(body)
        return batch

    def drop(self, table: str, batch: int) -> None:
        self.service.store.drop_batch(table, batch)
        with self.h._lock:
            del self.live_uploads[table, batch]

    def report(self, token: str, report: str, value: str, client: int = 0,
               samples=None):
        param = REPORT_PARAMS[report][0]
        return self.h.call(self.clients[client], "service.report", "GET",
                           f"/report/{report}?{param}={value}", None, token,
                           samples, trace_key=token)

    def check(self, payload: dict, expected: list, what: str) -> None:
        if not rows_match(expected, payload["rows"]):
            self.h.mismatch(f"{what}: got {payload['rows'][:3]}..., "
                            f"expected {expected[:3]}...")

    def stored_bytes_per_input_byte(self) -> float:
        stored = sum(p.stat().st_size for p in self.root.glob("*/*.seg"))
        return stored / sum(self.live_uploads.values())


def _base_metrics(h: Harness, dep: Deployment, report_samples, report_window: float) -> dict:
    return {
        "setup_s": median(h.setup_times),
        "report_ms_p50": 1000 * median(report_samples),
        "report_ms_p90": 1000 * percentile(report_samples, 0.9) if report_samples else 0.0,
        "report_rps": len(report_samples) / report_window if report_window > 0 else 0.0,
        "stored_bytes_per_input_byte": dep.stored_bytes_per_input_byte(),
    }


def _lag_samples(dep: Deployment, batches) -> list[float]:
    wanted = set(batches)
    return [s.lag_seconds for s in list(dep.service.refresher.lag_samples)
            if s.cube == "student_performance" and s.fact_batch in wanted]


# ---------------------------------------------------------------- workloads


def ingest_to_visible(h: Harness) -> dict:
    """One tenant re-uploads a corrected ~100k-row batch; time until visible."""
    tenant = tenant_key(0)
    rows = unique_fact_rows(h.workdir, PERFORMANCE, tenant, INGEST_ROWS, h.seed)
    dims = dimension_uploads()
    first_body = to_csv(PERFORMANCE, rows)
    first_expected = expected_reports(rows, [])
    h.notes.update(tenants=1, fact_rows=len(rows), upload_bytes=len(first_body),
                   refresh="CubeRefresher.run_once() called by the client after each upload",
                   loop="closed, 1 client", reports_per_step=len(TERMS), warmup_s=0)

    def prepare(dep: Deployment) -> dict:
        token = dep.login(0)
        for table, body in dims.items():
            if dep.upload(token, table, body) is None:
                raise RuntimeError(f"{table} upload failed in set-up")
        batch = dep.upload(token, PERFORMANCE, first_body)
        if batch is None:
            raise RuntimeError("fact upload failed in set-up")
        dep.service.refresher.run_once()
        payload, _ = dep.report(token, MARKS_REPORT, TERMS[0])
        if payload is None:
            raise RuntimeError("report failed in set-up")
        dep.check(payload, first_expected[MARKS_REPORT, TERMS[0]], "set-up report")
        return {"token": token, "batch": batch, "version": payload["cube_version"]}

    dep, info = h.setup(make_registry(h, 1), prepare)
    try:
        token, live_batch, version = info["token"], info["batch"], info["version"]
        rng = random.Random(f"{h.seed}:remark")
        uploads, reports, visible, step_batches = [], [], [], []
        t_start = _clock()
        deadline = t_start + h.seconds
        while _clock() < deadline:
            new_rows = remark(rows, rng)
            body = to_csv(PERFORMANCE, new_rows)
            expected = expected_reports(new_rows, [])
            t_sent = _clock()
            batch = dep.upload(token, PERFORMANCE, body, samples=uploads)
            if batch is None:
                break
            step_batches.append(batch)
            dep.service.refresher.run_once()
            seen = set()
            for term in TERMS:
                payload, end = dep.report(token, MARKS_REPORT, term, samples=reports)
                if payload is None:
                    continue
                if not seen:
                    visible.append(end - t_sent)
                seen.add(payload["cube_version"])
                dep.check(payload, expected[MARKS_REPORT, term], f"{MARKS_REPORT} {term}")
            if len(seen) != 1 or min(seen) <= version:
                h.mismatch(f"cube versions {sorted(seen)} after version {version}")
            version = max(seen, default=version)
            dep.drop(PERFORMANCE, live_batch)
            live_batch = batch
        t_end = _clock()
        h.window = (t_start, t_end)
        # the reads of a step form a closed loop; rate over the time spent reading
        metrics = _base_metrics(h, dep, reports, sum(reports))
        metrics.update(visible_s_mean=mean(visible), upload_ms_p50=1000 * median(uploads))
        h.lag_samples = _lag_samples(dep, step_batches)
        h.notes.update(steps=len(step_batches), visible_s_p50=median(visible),
                       samples={"visible": len(visible), "upload": len(uploads),
                                "report": len(reports)},
                       visible_s_each=[round(v, 3) for v in visible],
                       upload_ms_each=[round(1000 * v) for v in uploads])
        return metrics
    finally:
        dep.close()


def report_fanout(h: Harness) -> dict:
    """Sixteen tenants; one closed-loop client reads the three reports."""
    tenants = [tenant_key(i) for i in range(FANOUT_TENANTS)]
    dims = dimension_uploads()
    perf = [unique_fact_rows(h.workdir, PERFORMANCE, t, FANOUT_ROWS, h.seed) for t in tenants]
    counts = [unique_fact_rows(h.workdir, COUNTS, t, FANOUT_COUNT_ROWS, h.seed) for t in tenants]
    perf_bodies = [to_csv(PERFORMANCE, r) for r in perf]
    count_bodies = [to_csv(COUNTS, r) for r in counts]
    expected = [expected_reports(p, c) for p, c in zip(perf, counts)]
    upload_samples: list[float] = []
    visible: list[float] = []

    def prepare(dep: Deployment) -> dict:
        tokens: list = [None] * len(tenants)
        sent: list = [None] * len(tenants)

        def load(c: int) -> None:
            # loader c logs in and loads every FANOUT_LOADERS-th tenant from c
            for i in range(c, len(tenants), FANOUT_LOADERS):
                tokens[i] = token = dep.login(i, client=c)
                for table, body in (*dims.items(), (COUNTS, count_bodies[i])):
                    if dep.upload(token, table, body, client=c) is None:
                        raise RuntimeError(f"{table} upload failed in set-up")
                sent[i] = _clock()
                if dep.upload(token, PERFORMANCE, perf_bodies[i], client=c,
                              samples=upload_samples) is None:
                    raise RuntimeError("fact upload failed in set-up")

        def first_reports(c: int) -> None:
            for i in range(c, len(tenants), FANOUT_LOADERS):
                payload, end = dep.report(tokens[i], MARKS_REPORT, TERMS[0], client=c)
                if payload is None:
                    raise RuntimeError("report failed in set-up")
                visible.append(end - sent[i])
                dep.check(payload, expected[i][MARKS_REPORT, TERMS[0]], f"set-up tenant {i}")

        with ThreadPoolExecutor(FANOUT_LOADERS) as pool:
            for future in [pool.submit(load, c) for c in range(FANOUT_LOADERS)]:
                future.result()
            dep.service.refresher.run_once()
            for future in [pool.submit(first_reports, c) for c in range(FANOUT_LOADERS)]:
                future.result()
        return {"tokens": tokens}

    dep, info = h.setup(make_registry(h, len(tenants)), prepare,
                        n_clients=max(FANOUT_LOADERS, FANOUT_READERS))
    try:
        tokens = info["tokens"]
        rng = random.Random(f"{h.seed}:fanout")
        # readers own disjoint tenants, so a session is never used twice at once
        plans = []
        for c in range(FANOUT_READERS):
            combos = [(i, report, value)
                      for i in range(c, len(tenants), FANOUT_READERS)
                      for report, (_, values) in REPORT_PARAMS.items()
                      for value in values]
            rng.shuffle(combos)
            plans.append(combos)

        def loop(c: int, deadline: float, samples: list) -> None:
            combos = plans[c]
            for k in itertools.count():
                if _clock() >= deadline:
                    return
                i, report, value = combos[k % len(combos)]
                payload, _ = dep.report(tokens[i], report, value, client=c, samples=samples)
                if payload is not None:
                    dep.check(payload, expected[i][report, value],
                              f"tenant {i} {report} {value}")

        def run_clients(seconds: float) -> tuple[list[float], float, float]:
            per_client = [[] for _ in range(FANOUT_READERS)]
            t0 = _clock()
            threads = [threading.Thread(target=loop, args=(c, t0 + seconds, per_client[c]))
                       for c in range(FANOUT_READERS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return [s for samples in per_client for s in samples], t0, _clock()

        run_clients(FANOUT_WARMUP_S)
        reports, t_start, t_end = run_clients(h.seconds)
        h.window = (t_start, t_end)
        metrics = _base_metrics(h, dep, reports, t_end - t_start)
        metrics.update(
            visible_s_mean=mean(visible),
            upload_ms_p50=1000 * median(upload_samples),
        )
        h.notes.update(tenants=len(tenants), fact_rows=sum(map(len, perf)),
                       count_rows=sum(map(len, counts)),
                       refresh="CubeRefresher.run_once() called once in each set-up",
                       loop=f"closed, {FANOUT_READERS} client(s)",
                       setup_loaders=FANOUT_LOADERS, warmup_s=FANOUT_WARMUP_S,
                       from_setup=["visible_s_mean", "upload_ms_p50"],
                       visible_s_p50=median(visible),
                       samples={"report": len(reports), "visible": len(visible),
                                "upload": len(upload_samples)})
        return metrics
    finally:
        dep.close()


WORKLOADS = {
    "ingest_to_visible": ingest_to_visible,
    "report_fanout": report_fanout,
}
