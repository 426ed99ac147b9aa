"""The bench harness wraps package functions by name from outside the
package (`bench/run.py`'s `install`); a wrapped name that is renamed or
deleted must fail here, in the tier-1 suite, and not first in a traced
bench run."""

import importlib.util
from pathlib import Path

import mfskit
import mfskit.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_wraps_names_that_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling tracing
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    originals = (mfskit.fraud.walks_from, mfskit.protocol.most_frequent_sequence,
                 mfskit.cli.ProtocolConfig)
    tracer = run.Tracer()
    with run.traced_layers(tracer, mfskit):
        assert mfskit.fraud.walks_from is not originals[0]
    assert (mfskit.fraud.walks_from, mfskit.protocol.most_frequent_sequence,
            mfskit.cli.ProtocolConfig) == originals
