"""Registry, secret hashing, sessions, and the uniform-failure login path."""

import itertools
import random
import sys
import threading
import time

import pytest

from eduwarehouse.auth import (
    REGISTRY_HEADER,
    RegistryEntry,
    SessionManager,
    TenantRegistry,
    authenticate,
    hash_secret,
    verify_secret,
)
from eduwarehouse.errors import AuthenticationError, ValidationError
from eduwarehouse.schema import TenantKey

from conftest import U1, U2

FAST = 1000  # keep PBKDF2 cheap in tests; the scheme embeds the count


def _registry():
    return TenantRegistry.from_entries([
        RegistryEntry("uni1", hash_secret("open-sesame", iterations=FAST), U1),
        RegistryEntry("uni2", hash_secret("friend", iterations=FAST), U2),
    ])


# ---- hashing ----

def test_hash_verify_round_trip():
    stored = hash_secret("s3cret", iterations=FAST)
    assert stored.startswith("pbkdf2-sha256$1000$")
    assert verify_secret("s3cret", stored)
    assert not verify_secret("S3cret", stored)
    assert not verify_secret("", stored)


def test_hashes_are_salted():
    a = hash_secret("same", iterations=FAST)
    b = hash_secret("same", iterations=FAST)
    assert a != b
    assert verify_secret("same", a) and verify_secret("same", b)


@pytest.mark.parametrize("stored", [
    "",
    "plain$1000$00$00",
    "pbkdf2-sha256$1000$zz$zz",          # not hex
    "pbkdf2-sha256$notanumber$00$00",
    "pbkdf2-sha256$1000$0011",           # missing field
])
def test_verify_rejects_malformed_hashes(stored):
    assert verify_secret("whatever", stored) is False


# ---- registry ----

def test_registry_lookup():
    reg = _registry()
    assert reg.lookup("uni1").university_key == U1
    assert reg.lookup("ghost") is None


def test_registry_rejects_duplicates_and_bad_rows():
    h = hash_secret("x", iterations=FAST)
    with pytest.raises(ValidationError, match="empty login"):
        TenantRegistry.from_entries([RegistryEntry("", h, U1)])
    with pytest.raises(ValidationError, match="duplicate login"):
        TenantRegistry.from_entries([
            RegistryEntry("a", h, U1), RegistryEntry("a", h, U2),
        ])
    with pytest.raises(ValidationError, match="more than one login"):
        TenantRegistry.from_entries([
            RegistryEntry("a", h, U1), RegistryEntry("b", h, U1),
        ])
    with pytest.raises(ValidationError, match="malformed secret hash"):
        TenantRegistry.from_entries([RegistryEntry("a", "cleartext!", U1)])


def test_registry_save_load_round_trip(tmp_path):
    path = tmp_path / "registry.csv"
    reg = _registry()
    reg.save(path)
    text = path.read_text()
    assert text.splitlines()[0] == REGISTRY_HEADER
    assert "open-sesame" not in text, "secrets never stored in clear"

    loaded = TenantRegistry.load(path)
    assert loaded.entries == reg.entries


def test_registry_load_validates_shape(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text("login,oops\n")
    with pytest.raises(ValidationError, match="expected header"):
        TenantRegistry.load(path)

    path.write_text(REGISTRY_HEADER + "\n\nuni1,only-two-fields\n")
    with pytest.raises(ValidationError, match="line 3"):
        TenantRegistry.load(path)


# ---- sessions ----

def test_session_lifecycle_with_fake_clock():
    now = [100.0]
    sessions = SessionManager(ttl_seconds=60, clock=lambda: now[0])
    token = sessions.create(U1)
    ctx = sessions.resolve(token)
    assert ctx.university_key == U1 and ctx.session_id == token

    now[0] = 159.999
    assert sessions.resolve(token) is not None
    now[0] = 160.0  # expiry boundary is inclusive
    assert sessions.resolve(token) is None
    assert sessions.resolve(token) is None  # stays gone
    assert sessions.resolve("not-a-token") is None


def test_session_ttl_validated():
    with pytest.raises(ValidationError):
        SessionManager(ttl_seconds=0)


def test_tokens_are_unpredictable_enough():
    sessions = SessionManager(ttl_seconds=60)
    tokens = {sessions.create(U1) for _ in range(50)}
    assert len(tokens) == 50
    assert all(len(t) == 32 for t in tokens)


def test_create_purges_tokens_that_expired_unpresented():
    now = [0.0]
    sessions = SessionManager(ttl_seconds=60, clock=lambda: now[0])
    stale = {sessions.create(U1) for _ in range(3)}
    now[0] = 30.0
    live = sessions.create(U2)
    now[0] = 60.0  # the first three expire now; nobody presents them again
    fresh = sessions.create(U1)
    assert set(sessions._sessions) == {live, fresh}
    assert not stale & set(sessions._sessions)
    assert sessions.resolve(live).university_key == U2


def test_sessions_stay_consistent_under_concurrent_expiry():
    # every clock read is one tick past the last, so with a one-tick ttl each
    # token has expired by the time any thread resolves it; each read also
    # yields the interpreter lock, so two threads often expire the same token
    ticks = itertools.count()

    def clock():
        time.sleep(0)
        return next(ticks)

    sessions = SessionManager(ttl_seconds=1, clock=clock)
    tokens = [sessions.create(U1) for _ in range(4)]
    errors = []
    start = threading.Barrier(8)

    def worker(seed):
        rng = random.Random(seed)
        try:
            start.wait(timeout=30)
            for _ in range(3000):
                slot = rng.randrange(len(tokens))
                if rng.random() < 0.2:
                    tokens[slot] = sessions.create(U1)
                else:
                    assert sessions.resolve(tokens[slot]) is None
        except Exception as exc:  # collected, asserted on below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    last = sessions.create(U2)
    assert set(sessions._sessions) == {last}


# ---- login ----

def test_authenticate_opens_resolvable_session():
    reg, sessions = _registry(), SessionManager(ttl_seconds=60)
    ctx = authenticate(reg, sessions, "uni1", "open-sesame")
    assert ctx.university_key == U1
    assert sessions.resolve(ctx.session_id).university_key == U1


def test_failed_logins_are_indistinguishable():
    reg, sessions = _registry(), SessionManager(ttl_seconds=60)
    with pytest.raises(AuthenticationError) as unknown_login:
        authenticate(reg, sessions, "ghost", "open-sesame")
    with pytest.raises(AuthenticationError) as wrong_secret:
        authenticate(reg, sessions, "uni1", "wrong")
    assert str(unknown_login.value) == str(wrong_secret.value) == "authentication failed"
    assert not sessions._sessions, "no session opened on failure"


def test_cross_tenant_secret_does_not_work():
    reg, sessions = _registry(), SessionManager(ttl_seconds=60)
    with pytest.raises(AuthenticationError):
        authenticate(reg, sessions, "uni2", "open-sesame")
