import pytest

from repro.scheduler.quota import QuotaManager


def test_no_quota_always_allows():
    quotas = QuotaManager()
    assert quotas.may_start("anything", 10_000)


def test_quota_enforced_on_start():
    quotas = QuotaManager({"vision": 16})
    quotas.acquire("vision", 8)
    assert quotas.may_start("vision", 8)
    quotas.acquire("vision", 8)
    assert not quotas.may_start("vision", 1)


def test_release_restores_headroom():
    quotas = QuotaManager({"nlp": 8})
    quotas.acquire("nlp", 8)
    quotas.release("nlp", 8)
    assert quotas.may_start("nlp", 8)
    assert quotas.usage_of("nlp") == 0


def test_acquire_beyond_quota_raises():
    quotas = QuotaManager({"nlp": 8})
    with pytest.raises(RuntimeError, match="exceed"):
        quotas.acquire("nlp", 9)


def test_release_more_than_usage_raises():
    quotas = QuotaManager()
    quotas.acquire("p", 4)
    with pytest.raises(RuntimeError, match="exceeds"):
        quotas.release("p", 5)


def test_set_quota_validation():
    with pytest.raises(ValueError):
        QuotaManager({"p": 0})
    quotas = QuotaManager({"p": 4})
    quotas.acquire("p", 4)
    assert not quotas.may_start("p", 1)


def test_quota_constructor_validation():
    with pytest.raises(ValueError):
        QuotaManager({"p": -1})
