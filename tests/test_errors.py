import os
import subprocess
import sys
from pathlib import Path

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


def run_with_bad_walk_limit(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, MFSKIT_MAX_WALKS="abc", PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def test_import_ignores_environment():
    # the environment is read when the CLI builds its limits, not at import
    done = run_with_bad_walk_limit(
        "-c", "import mfskit; print(mfskit.DEFAULT_LIMITS == mfskit.Limits())"
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


def test_cli_process_rejects_bad_environment():
    done = run_with_bad_walk_limit("-m", "mfskit.cli", "df", "exact-tree", "-n", "2")
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: MFSKIT_MAX_WALKS must be a positive integer, got 'abc'\n"
    )


def test_resource_error_is_a_package_error():
    assert issubclass(ResourceLimitError, MfskitError)
