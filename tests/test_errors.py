import pytest

from mfskit import Limits
from mfskit.errors import MfskitError, ResourceLimitError


def test_defaults():
    limits = Limits()
    assert limits.max_walks == 2**26
    assert limits.max_sequences == 2**26
    assert limits.max_exact_rounds == 12
    assert limits.max_brute_vertices == 22


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("MFSKIT_MAX_WALKS", "1024")
    monkeypatch.setenv("MFSKIT_MAX_EXACT_ROUNDS", "5")
    limits = Limits.from_env()
    assert limits.max_walks == 1024
    assert limits.max_exact_rounds == 5
    assert limits.max_sequences == 2**26  # untouched


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_env_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("MFSKIT_MAX_WALKS", raw)
    with pytest.raises(MfskitError, match=f"MFSKIT_MAX_WALKS.*'{raw}'"):
        Limits.from_env()


def test_resource_error_is_a_package_error():
    assert issubclass(ResourceLimitError, MfskitError)
