"""Tenant authentication: registry of salted secret hashes and sessions.

Secrets are stored as salted PBKDF2-SHA256 hashes, never in clear.  Failed
authentication is uniform: an unknown login performs the same hash work and
raises the same error as a wrong secret, so callers cannot enumerate logins.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import AuthenticationError, ValidationError
from .olap import TenantContext
from .schema import TenantKey

PBKDF2_ITERATIONS = 200_000
_SCHEME = "pbkdf2-sha256"

REGISTRY_HEADER = "login,secret_hash,university_key"


def hash_secret(secret: str, *, iterations: int = PBKDF2_ITERATIONS, salt: bytes | None = None) -> str:
    """Salted hash in the form pbkdf2-sha256$<iterations>$<salt>$<digest>."""
    if salt is None:
        salt = secrets.token_bytes(16)
    digest = hashlib.pbkdf2_hmac("sha256", secret.encode("utf-8"), salt, iterations)
    return f"{_SCHEME}${iterations}${salt.hex()}${digest.hex()}"


def verify_secret(secret: str, stored: str) -> bool:
    """Constant-time comparison against a stored hash string."""
    try:
        scheme, iterations, salt_hex, digest_hex = stored.split("$")
        if scheme != _SCHEME:
            return False
        expected = bytes.fromhex(digest_hex)
        actual = hashlib.pbkdf2_hmac(
            "sha256", secret.encode("utf-8"), bytes.fromhex(salt_hex), int(iterations)
        )
    except (ValueError, TypeError):
        return False
    return hmac.compare_digest(actual, expected)


# fixed-salt hash used to equalize the work done for unknown logins
_DUMMY_HASH = hash_secret("dummy", salt=b"\x00" * 16)


@dataclass(frozen=True)
class RegistryEntry:
    login: str
    secret_hash: str
    university_key: TenantKey


class TenantRegistry:
    """login -> (secret hash, tenant key), loaded from a CSV file."""

    def __init__(self, entries: dict[str, RegistryEntry]):
        self.entries = entries

    @classmethod
    def from_entries(cls, entries) -> "TenantRegistry":
        by_login: dict[str, RegistryEntry] = {}
        seen_tenants: set[str] = set()
        for entry in entries:
            if not entry.login:
                raise ValidationError("registry: empty login")
            if entry.login in by_login:
                raise ValidationError(f"registry: duplicate login {entry.login!r}")
            tenant = entry.university_key.value
            if tenant in seen_tenants:
                raise ValidationError(
                    f"registry: university_key {tenant!r} mapped to more than one login"
                )
            if "$" not in entry.secret_hash or not entry.secret_hash.startswith(_SCHEME):
                raise ValidationError(f"registry: malformed secret hash for {entry.login!r}")
            seen_tenants.add(tenant)
            by_login[entry.login] = entry
        return cls(by_login)

    @classmethod
    def load(cls, path: Path | str) -> "TenantRegistry":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != REGISTRY_HEADER:
            raise ValidationError(f"registry {path}: expected header {REGISTRY_HEADER!r}")
        entries = []
        for i, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValidationError(f"registry {path}: bad row at line {i}")
            entries.append(RegistryEntry(parts[0], parts[1], TenantKey(parts[2])))
        return cls.from_entries(entries)

    def save(self, path: Path | str) -> None:
        lines = [REGISTRY_HEADER]
        for entry in self.entries.values():
            lines.append(f"{entry.login},{entry.secret_hash},{entry.university_key.value}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def lookup(self, login: str) -> RegistryEntry | None:
        return self.entries.get(login)


class SessionManager:
    """Opaque expiring session tokens mapping to tenant keys, shared by the
    request threads.  ``create`` drops every expired token, presented or not.
    """

    def __init__(self, ttl_seconds: float = 3600.0, clock=time.monotonic):
        if ttl_seconds <= 0:
            raise ValidationError("session ttl must be positive")
        self.ttl = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._sessions: dict[str, tuple[TenantKey, float]] = {}

    def create(self, tenant: TenantKey) -> str:
        token = secrets.token_hex(16)
        now = self._clock()
        with self._lock:
            self._sessions = {t: s for t, s in self._sessions.items() if now < s[1]}
            self._sessions[token] = (tenant, now + self.ttl)
        return token

    def resolve(self, token: str) -> TenantContext | None:
        with self._lock:
            record = self._sessions.get(token)
            if record is None:
                return None
            tenant, expires = record
            if self._clock() >= expires:
                self._sessions.pop(token, None)
                return None
        return TenantContext(tenant, token)


def authenticate(
    registry: TenantRegistry, sessions: SessionManager, login: str, secret: str
) -> TenantContext:
    """Verify credentials and open a session.

    Unknown login and wrong secret are indistinguishable to the caller:
    both perform one full hash verification and raise the same error.
    """
    entry = registry.lookup(login)
    if entry is None:
        verify_secret(secret, _DUMMY_HASH)
        raise AuthenticationError("authentication failed")
    if not verify_secret(secret, entry.secret_hash):
        raise AuthenticationError("authentication failed")
    token = sessions.create(entry.university_key)
    return TenantContext(entry.university_key, token)
