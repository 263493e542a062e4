"""Operator command line.

Subcommands cover the warehouse lifecycle: init a root, ingest uploads,
build cubes, render reports, run benchmarks, and serve the tenant-facing
endpoint.  Data outputs are byte-identical for identical inputs; wall-clock
measurements only ever appear on lines marked timing_ms or *_seconds.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .errors import WarehouseError
from .schema import TenantKey, builtin_schema, render_schema_reference
from .store import SegmentStore
from .etl import CASE1, CASE2, EtlPipeline
from .cube import CubeEngine, builtin_cube_specs
from .olap import QueryEngine, TenantContext
from .auth import RegistryEntry, TenantRegistry, hash_secret
from .config import GatewayConfig, load_config, parse_bytes, render_default_config
from .bench import (
    BenchPlan,
    ETL_EXPERIMENT,
    OLAP_EXPERIMENT,
    emit_gnuplot,
    run_etl_bench,
    run_olap_bench,
)

CONFIG_NAME = "gateway.conf"

_DEMO_TENANTS = ("University1", "University2")


def _demo_login(university_key: str) -> tuple[str, str]:
    login = university_key.lower()
    return login, f"change-me-{login}"


def _load(args) -> GatewayConfig:
    cfg = load_config(getattr(args, "config", None))
    if getattr(args, "root", None):
        cfg = replace(cfg, warehouse_root=Path(args.root))
    return cfg


def _store(cfg: GatewayConfig) -> SegmentStore:
    return SegmentStore(cfg.warehouse_root, builtin_schema())


def cmd_init(args) -> int:
    cfg = _load(args)
    root = cfg.warehouse_root
    if cfg.registry_path.exists():
        raise WarehouseError(f"{root} is already initialized (registry.csv exists)")
    SegmentStore(root, builtin_schema())
    (root / CONFIG_NAME).write_text(render_default_config(root), encoding="utf-8")
    entries = []
    for key in _DEMO_TENANTS:
        login, secret = _demo_login(key)
        entries.append(RegistryEntry(login, hash_secret(secret), TenantKey(key)))
    TenantRegistry.from_entries(entries).save(cfg.registry_path)
    (root / "schema_reference.md").write_text(
        render_schema_reference(builtin_schema()), encoding="utf-8"
    )
    print(f"initialized warehouse at {root}")
    print(f"  {CONFIG_NAME}: gateway settings (edit before serving)")
    print("  registry.csv: demo tenants, replace the credentials before real use")
    for key in _DEMO_TENANTS:
        login, secret = _demo_login(key)
        print(f"    {key}: login={login} secret={secret}")
    print("  schema_reference.md: upload file formats")
    return 0


def cmd_ingest(args) -> int:
    cfg = _load(args)
    pipeline = EtlPipeline(_store(cfg), cfg.split_config(), cfg.worker_pool_size)
    result = pipeline.run(args.file, args.table, TenantKey(args.tenant), args.mode)
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    if not result.committed:
        report_path = Path(args.error_report or f"{args.file}.errors.csv")
        report_path.write_text(result.report.to_csv(), encoding="utf-8")
        print(
            f"error: {args.table} batch rejected, {len(result.report.entries)} "
            f"error(s); report written to {report_path}",
            file=sys.stderr,
        )
        return 1
    print(f"committed {args.table} batch {result.segment.batch_id} "
          f"(mode {result.mode}, {result.n_m} splits)")
    print(f"rows_in={result.rows_in} rows_out={result.rows_out}")
    print(f"timing_ms: effective={result.effective_time * 1000:.2f} "
          f"cumulative={result.cumulative_time * 1000:.2f}")
    return 0


def cmd_build_cube(args) -> int:
    cfg = _load(args)
    engine = CubeEngine(_store(cfg), cfg.worker_pool_size, cfg.s_b)
    specs = builtin_cube_specs()
    if args.cube:
        if args.cube not in specs:
            known = ", ".join(sorted(specs))
            raise WarehouseError(f"unknown cube {args.cube!r} (shipped cubes: {known})")
        specs = {args.cube: specs[args.cube]}
    for name in sorted(specs):
        summary = engine.build(specs[name])
        sys.stdout.write(summary.to_report())
    return 0


def cmd_report(args) -> int:
    cfg = _load(args)
    engine = QueryEngine(_store(cfg))
    params = {}
    for item in args.param or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise WarehouseError(f"--param expects name=value, got {item!r}")
        params[key] = value
    ctx = TenantContext(TenantKey(args.tenant), "cli")
    result = engine.generate_report(ctx, args.report, params)
    out = result.to_table() if args.format == "table" else result.to_csv()
    sys.stdout.write(out)
    return 0


def cmd_reports(args) -> int:
    cfg = _load(args)
    for entry in QueryEngine(_store(cfg)).list_reports():
        params = ", ".join(entry["params"]) or "none"
        print(f"{entry['report_id']}: {entry['description']} (params: {params})")
    return 0


def _parse_sizes(raw: str, experiment: str) -> tuple[int, ...]:
    parse = parse_bytes if experiment == ETL_EXPERIMENT else int
    try:
        return tuple(parse(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise WarehouseError(f"bad --sizes value: {exc}") from None


_DEFAULT_SIZES = {
    ETL_EXPERIMENT: "2MiB,4MiB,8MiB,16MiB,32MiB,64MiB",
    OLAP_EXPERIMENT: "50000,100000,200000,400000,800000",
}


def cmd_bench(args) -> int:
    cfg = _load(args)
    sizes = _parse_sizes(args.sizes or _DEFAULT_SIZES[args.experiment], args.experiment)
    plan = BenchPlan(args.experiment, sizes, args.reps, args.mode, args.seed)
    if args.experiment == ETL_EXPERIMENT:
        series = run_etl_bench(_store(cfg), plan, cfg.split_config(), cfg.worker_pool_size)
    else:
        series = run_olap_bench(cfg.warehouse_root, plan)
    for note in series.notes:
        print(f"note: {note}", file=sys.stderr)
    out = Path(args.out or f"bench_{args.experiment}.csv")
    out.write_text(series.to_csv(), encoding="utf-8")
    sys.stdout.write(series.to_csv())
    print(f"wrote {out}", file=sys.stderr)
    if args.gnuplot:
        script = emit_gnuplot(series, str(out), str(out.with_suffix(".png")))
        Path(args.gnuplot).write_text(script, encoding="utf-8")
        print(f"wrote {args.gnuplot}", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    from .service import run_service  # deferred: pulls in the http stack

    cfg = _load(args)
    run_service(cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--root", help="warehouse root directory (overrides config)")
    common.add_argument("--config", help="path to a key=value gateway config file")
    common.add_argument("--verbose", action="store_true", help="log progress details")

    parser = argparse.ArgumentParser(
        prog="eduwh", description="multi-tenant educational data warehouse"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", parents=[common], help="create a warehouse root")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("ingest", parents=[common], help="load one CSV upload")
    p.add_argument("--tenant", required=True, help="university key, e.g. University1")
    p.add_argument("--table", required=True, help="catalog table name")
    p.add_argument("--file", required=True, help="CSV upload with header row")
    p.add_argument("--mode", choices=(CASE1, CASE2), default=CASE2,
                   help="split planning mode (default case2)")
    p.add_argument("--error-report", help="where to write the per-line error CSV")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build-cube", parents=[common], help="materialize OLAP cubes")
    p.add_argument("--cube", help="one shipped cube name (default: all)")
    p.set_defaults(func=cmd_build_cube)

    p = sub.add_parser("report", parents=[common], help="render a predefined report")
    p.add_argument("--tenant", required=True, help="university key to scope to")
    p.add_argument("--report", required=True, help="report id (see list-reports)")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="report parameter, repeatable")
    p.add_argument("--format", choices=("csv", "table"), default="csv")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("list-reports", parents=[common], help="list predefined reports")
    p.set_defaults(func=cmd_reports)

    p = sub.add_parser("bench", parents=[common], help="run a scalability benchmark")
    p.add_argument("experiment", choices=(ETL_EXPERIMENT, OLAP_EXPERIMENT))
    p.add_argument("--sizes", help="comma list: bytes for etl (KiB/MiB ok), row counts for olap")
    p.add_argument("--reps", type=int, default=20, help="repetitions per size (default 20)")
    p.add_argument("--mode", choices=(CASE1, CASE2),
                   help="etl only: run a single case instead of both")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="series CSV path (default bench_<experiment>.csv)")
    p.add_argument("--gnuplot", help="also write a gnuplot script here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("serve", parents=[common], help="start the tenant service")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s %(message)s",
    )
    try:
        return args.func(args)
    except (WarehouseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
