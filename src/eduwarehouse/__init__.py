"""Multi-tenant educational data warehouse.

A shared snowflake-schema warehouse for university data: tenant-qualified
keys, an immutable segment store with atomic batch commits, split-parallel
CSV ingestion, materialized cubes with grouping-id semantics, and predefined
tenant-scoped reports behind a small HTTP gateway.
"""

from .errors import (
    AuthenticationError,
    BenchError,
    StorageError,
    ValidationError,
    WarehouseError,
)
from .schema import TenantKey, builtin_schema
from .store import SegmentStore
from .etl import (
    CASE1,
    CASE2,
    EtlPipeline,
    SplitConfig,
    mapper_count,
    plan_splits,
    split_size,
)
from .cube import (
    CubeEngine,
    CubeSpec,
    builtin_cube_specs,
    grouping_id,
    presence_from_id,
)
from .olap import QueryEngine, TenantContext, report_catalog
from .auth import SessionManager, TenantRegistry, authenticate, hash_secret
from .config import GatewayConfig, load_config, parse_bytes
from .datagen import DimensionUniverse, gen_dataset, gen_dataset_rows
from .bench import BenchPlan, remove_outliers, run_etl_bench, run_olap_bench

__version__ = "0.1.0"

__all__ = [
    "AuthenticationError",
    "BenchError",
    "BenchPlan",
    "CASE1",
    "CASE2",
    "CubeEngine",
    "CubeSpec",
    "DimensionUniverse",
    "EtlPipeline",
    "GatewayConfig",
    "QueryEngine",
    "SegmentStore",
    "SessionManager",
    "SplitConfig",
    "StorageError",
    "TenantContext",
    "TenantKey",
    "TenantRegistry",
    "ValidationError",
    "WarehouseError",
    "authenticate",
    "builtin_cube_specs",
    "builtin_schema",
    "gen_dataset",
    "gen_dataset_rows",
    "grouping_id",
    "hash_secret",
    "load_config",
    "mapper_count",
    "parse_bytes",
    "plan_splits",
    "presence_from_id",
    "remove_outliers",
    "report_catalog",
    "run_etl_bench",
    "run_olap_bench",
    "split_size",
    "__version__",
]
