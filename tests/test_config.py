"""Configuration parsing and validation."""

from pathlib import Path

import pytest

from eduwarehouse.config import (
    GIB,
    KIB,
    MIB,
    GatewayConfig,
    load_config,
    parse_bytes,
    render_default_config,
)
from eduwarehouse.errors import ValidationError


# ---- byte sizes ----

@pytest.mark.parametrize("text,expected", [
    ("1048576", 1048576),
    ("1", 1),
    ("4KiB", 4 * KIB),
    ("4kib", 4 * KIB),
    ("64m", 64 * MIB),
    ("2MiB", 2 * MIB),
    ("1GiB", GIB),
    (" 8 MiB ", 8 * MIB),
])
def test_parse_bytes(text, expected):
    assert parse_bytes(text) == expected


@pytest.mark.parametrize("text", ["", "MiB", "1.5MiB", "-1", "0", "12qb", "ten"])
def test_parse_bytes_rejects(text):
    with pytest.raises(ValidationError):
        parse_bytes(text)


# ---- defaults and validation ----

def test_defaults():
    cfg = GatewayConfig()
    assert cfg.warehouse_root == Path("warehouse")
    assert (cfg.s_min, cfg.s_max, cfg.s_b) == (1, 256 * MIB, MIB)
    assert cfg.worker_pool_size >= 1
    assert cfg.listen_host == "127.0.0.1" and cfg.listen_port == 8765
    assert cfg.registry_path == Path("warehouse") / "registry.csv"
    split = cfg.split_config()
    assert (split.s_min, split.s_max, split.s_b) == (1, 256 * MIB, MIB)


@pytest.mark.parametrize("kwargs", [
    {"s_min": 0},
    {"s_min": 10, "s_max": 5},
    {"worker_pool_size": 0},
    {"cube_refresh_interval": 0},
    {"cube_refresh_interval": float("nan")},
    {"cube_refresh_interval": float("inf")},
    {"session_ttl": -1},
    {"session_ttl": float("nan")},
    {"session_ttl": float("inf")},
    {"upload_limit": 0},
    {"listen_port": 65536},
    {"listen_port": -1},
])
def test_validation_rejects(kwargs):
    with pytest.raises(ValidationError):
        GatewayConfig(**kwargs)


def test_port_zero_allowed_for_ephemeral_binding():
    assert GatewayConfig(listen_port=0).listen_port == 0


# ---- file loading ----

def test_load_none_gives_defaults():
    assert load_config(None) == GatewayConfig()


def test_load_file(tmp_path):
    path = tmp_path / "gateway.conf"
    path.write_text(
        "# comment\n"
        "\n"
        "warehouse_root=/srv/wh\n"
        "s_b = 4MiB\n"
        "listen_address=0.0.0.0:9000\n"
        "worker_pool_size=2\n"
        "session_ttl=120\n"
    )
    cfg = load_config(path)
    assert cfg.warehouse_root == Path("/srv/wh")
    assert cfg.s_b == 4 * MIB
    assert (cfg.listen_host, cfg.listen_port) == ("0.0.0.0", 9000)
    assert cfg.worker_pool_size == 2
    assert cfg.session_ttl == 120.0
    assert cfg.upload_limit == 256 * MIB, "unset keys keep defaults"


def test_load_ipv6_listen_address(tmp_path):
    path = tmp_path / "c"
    path.write_text("listen_address=::1:8080\n")
    cfg = load_config(path)
    assert (cfg.listen_host, cfg.listen_port) == ("::1", 8080)


@pytest.mark.parametrize("line,fragment", [
    ("mystery=1", "unknown key"),
    ("just a line", "expected key=value"),
    ("listen_address=8080", "host:port"),
    ("s_b=zero", "byte size"),
    ("worker_pool_size=two", "worker_pool_size is not a number"),
    ("listen_address=localhost:http", "port is not a number"),
    ("session_ttl=soon", "session_ttl is not a number"),
    ("cube_refresh_interval=nan", "finite positive"),
    ("session_ttl=inf", "finite positive"),
    ("session_ttl=-5", "finite positive"),
])
def test_load_rejects_bad_lines(tmp_path, line, fragment):
    path = tmp_path / "c"
    path.write_text("# header\n" + line + "\n")
    with pytest.raises(ValidationError, match=fragment) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}:2: ")


def test_error_messages_carry_line_numbers(tmp_path):
    path = tmp_path / "c"
    path.write_text("s_b=1MiB\n# fine\nbogus_key=1\n")
    with pytest.raises(ValidationError, match=":3:"):
        load_config(path)


def test_rendered_template_round_trips(tmp_path):
    path = tmp_path / "gateway.conf"
    path.write_text(render_default_config(tmp_path / "wh"))
    cfg = load_config(path)
    assert cfg == GatewayConfig(warehouse_root=tmp_path / "wh")
