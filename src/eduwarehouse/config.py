"""Gateway configuration: documented defaults plus a key=value file format.

Byte sizes accept plain integers or KiB/MiB/GiB suffixes.  Unknown keys are
rejected so typos fail loudly instead of silently running on defaults.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ValidationError
from .etl import SplitConfig

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

_SIZE_SUFFIXES = {"kib": KIB, "mib": MIB, "gib": GIB, "k": KIB, "m": MIB, "g": GIB}


def parse_bytes(text: str) -> int:
    """Parse "1048576", "1MiB", "64m" and the like into a byte count."""
    raw = text.strip().lower()
    for suffix, factor in _SIZE_SUFFIXES.items():
        if raw.endswith(suffix):
            number = raw[: -len(suffix)].strip()
            break
    else:
        number, factor = raw, 1
    try:
        value = int(number)
    except ValueError:
        raise ValidationError(f"not a byte size: {text!r}") from None
    if value <= 0:
        raise ValidationError(f"byte size must be positive: {text!r}")
    return value * factor


def _seconds(name: str, value: float) -> float:
    if not 0 < value < math.inf:  # also refuses nan
        raise ValidationError(f"{name} must be a finite positive number of seconds")
    return value


@dataclass
class GatewayConfig:
    """Operator configuration with desk-scale defaults."""

    warehouse_root: Path = Path("warehouse")
    s_min: int = 1
    s_max: int = 256 * MIB
    s_b: int = 1 * MIB
    worker_pool_size: int = field(default_factory=lambda: os.cpu_count() or 1)
    cube_refresh_interval: float = 60.0
    listen_host: str = "127.0.0.1"
    listen_port: int = 8765
    session_ttl: float = 3600.0
    upload_limit: int = 256 * MIB

    def __post_init__(self) -> None:
        self.warehouse_root = Path(self.warehouse_root)
        SplitConfig(self.s_min, self.s_max, self.s_b)  # validates the triple
        if self.worker_pool_size < 1:
            raise ValidationError("worker_pool_size must be >= 1")
        _seconds("cube_refresh_interval", self.cube_refresh_interval)
        _seconds("session_ttl", self.session_ttl)
        if self.upload_limit <= 0:
            raise ValidationError("upload_limit must be positive")
        if not 0 <= self.listen_port < 65536:  # 0 binds an ephemeral port
            raise ValidationError("listen_port out of range")

    @property
    def registry_path(self) -> Path:
        return self.warehouse_root / "registry.csv"

    def split_config(self) -> SplitConfig:
        return SplitConfig(self.s_min, self.s_max, self.s_b)


_BYTE_KEYS = {"s_min", "s_max", "s_b", "upload_limit"}
_INT_KEYS = {"worker_pool_size", "listen_port"}
_FLOAT_KEYS = {"cube_refresh_interval", "session_ttl"}


def load_config(path: Path | str | None) -> GatewayConfig:
    """Read a key=value config file; missing file or None means defaults."""
    if path is None:
        return GatewayConfig()
    values: dict = {}
    known = {f.name for f in fields(GatewayConfig)} | {"listen_address"}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values.update(_parse_entry(key, value))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return GatewayConfig(**values)


def _parse_entry(key: str, value: str) -> dict:
    """The GatewayConfig fields one key=value line sets."""
    if key == "listen_address":
        host, _, port = value.rpartition(":")
        if not host or not port:
            raise ValidationError("listen_address must be host:port")
        return {"listen_host": host, "listen_port": _number(int, "listen_address port", port)}
    if key == "warehouse_root":
        return {key: Path(value)}
    if key in _BYTE_KEYS:
        return {key: parse_bytes(value)}
    if key in _INT_KEYS:
        return {key: _number(int, key, value)}
    if key in _FLOAT_KEYS:
        return {key: _seconds(key, _number(float, key, value))}
    return {key: value}


def _number(kind, name: str, text: str):
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"{name} is not a number: {text!r}") from None


def render_default_config(root: Path | str | None = None) -> str:
    """Template written by the init command."""
    cfg = GatewayConfig()
    return (
        "# eduwarehouse gateway configuration\n"
        f"warehouse_root={root if root is not None else cfg.warehouse_root}\n"
        f"s_min={cfg.s_min}\n"
        f"s_max={cfg.s_max // MIB}MiB\n"
        f"s_b={cfg.s_b // MIB}MiB\n"
        f"worker_pool_size={cfg.worker_pool_size}\n"
        f"cube_refresh_interval={cfg.cube_refresh_interval}\n"
        f"listen_address={cfg.listen_host}:{cfg.listen_port}\n"
        f"session_ttl={cfg.session_ttl}\n"
        f"upload_limit={cfg.upload_limit // MIB}MiB\n"
    )
