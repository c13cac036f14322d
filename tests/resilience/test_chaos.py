"""ChaosPolicy: deterministic, seeded, stateless fault decisions."""

import pytest

from repro.resilience import CHAOS_EXIT_CODE, ChaosPolicy, WorkerKilled
from repro.resilience.chaos import _unit_draw


def test_unit_draw_is_deterministic_and_keyed():
    a = _unit_draw(7, "kill", "digest", 0)
    assert a == _unit_draw(7, "kill", "digest", 0)
    assert 0.0 <= a < 1.0
    assert a != _unit_draw(7, "kill", "digest", 1)
    assert a != _unit_draw(8, "kill", "digest", 0)


def test_policy_decisions_identical_across_instances():
    """Two equal policies (e.g. parent and pickled worker copy) must make
    the same decisions — that is what makes chaos runs reproducible."""
    a = ChaosPolicy(seed=3, worker_kill_rate=0.5, cache_corruption_rate=0.5)
    b = ChaosPolicy(seed=3, worker_kill_rate=0.5, cache_corruption_rate=0.5)
    for digest in ("aa" * 32, "bb" * 32, "cc" * 32):
        for attempt in range(4):
            assert a.should_kill_worker(digest, attempt) == b.should_kill_worker(
                digest, attempt
            )
        assert a.corruption_mode(digest) == b.corruption_mode(digest)


def test_kill_budget_guarantees_termination():
    """After max_kills_per_config attempts the policy must stand down,
    so a retrying pool always finishes."""
    chaos = ChaosPolicy(seed=0, worker_kill_rate=1.0, max_kills_per_config=2)
    digest = "ab" * 32
    assert chaos.should_kill_worker(digest, 0)
    assert chaos.should_kill_worker(digest, 1)
    assert not chaos.should_kill_worker(digest, 2)
    assert not chaos.should_kill_worker(digest, 99)


def test_inline_kill_raises_worker_killed():
    chaos = ChaosPolicy(seed=0, worker_kill_rate=1.0)
    with pytest.raises(WorkerKilled):
        chaos.kill_worker("ab" * 32, 0, subprocess=False)
    assert CHAOS_EXIT_CODE == 137  # the OOM-killer's signature


def test_rate_validation():
    with pytest.raises(ValueError):
        ChaosPolicy(worker_kill_rate=1.5)
    with pytest.raises(ValueError):
        ChaosPolicy(cache_corruption_rate=-0.1)


def test_corrupt_entry_modes(tmp_path):
    payload = bytes(range(256)) * 16
    chaos = ChaosPolicy(seed=1, cache_corruption_rate=1.0)
    seen = set()
    for i in range(16):
        digest = f"{i:02x}" * 32
        path = tmp_path / f"{digest}.npz"
        path.write_bytes(payload)
        mode = chaos.corruption_mode(digest)
        seen.add(mode)
        chaos.corrupt_entry(path, digest)
        assert path.read_bytes() != payload
    assert seen  # at least one corruption mode exercised


class _Sink:
    def __init__(self):
        self.written = []

    def write(self, event):
        self.written.append(event)

    def close(self):
        pass




def test_mangle_stream_passes_real_items_untouched():
    chaos = ChaosPolicy(seed=2, malformed_item_rate=0.5, late_item_rate=0.5)
    real = [(float(i), "job", {"i": i}) for i in range(32)]
    out = list(chaos.mangle_stream(iter(real)))
    survivors = [item for item in out if item[2] is not None]
    assert survivors == real
    junk = [item for item in out if item[2] is None]
    assert junk  # at 50% rates some junk must be injected
    # Determinism: the same policy mangles the same stream identically.
    assert out == list(chaos.mangle_stream(iter(real)))
