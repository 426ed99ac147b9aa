#!/usr/bin/env python3
"""mfskit benchmark: CLI throughput end to end, and per-layer timings.

Run from the repository root, standard library only:

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 10 --trace 0

Every timed operation is a CLI command a user runs, called in process
through ``mfskit.cli.main(argv)`` with its stdout and stderr captured; the
mfskit sources come from ``src/`` next to this directory.  Each command's
output is checked after its timed region.  The last line on stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the Python version, CPU model, nproc, git revision and seed.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  ``bench/smoke.py`` runs every workload at tiny sizes.

Workloads
---------
The work is repeated in *units* until ``--seconds`` of timed work is done.
Each unit's inputs derive from the workload seed and the unit's index.

``exact-sweep``
    Unit: ``df exact-tree --sweep 1:9``.  This is the headline computation.
    Its cost is big-integer work in ``fraud``: thresholds x > 100 take about
    93 % of the n=9 time, while E[M] is about 13.7.  Truncating the sweep,
    one recursion engine and lazily built binomial rows show here.
    ``walks`` and ``protocol`` do no work in this workload.
``sampling-early-reply``
    Unit: ``simulate --protocol tree -n 4 --adversary early-reply`` with
    2000 trials.  This is many tiny calls.  One session costs about 90 us:
    the labeler takes about a third and the MFS solver about half.
``sampling-honest``
    Unit: the same with ``--adversary honest`` and 4000 trials.  It skips
    the MFS solver, so it is the control for any MFS change.
``sampling-ring``
    Unit: ``simulate --protocol poulidor -n 6 --adversary early-reply``
    with 1000 trials.  It is an MFS solve on a graph that is not a tree,
    so a tree-only MFS shortcut does not apply here.
``sampling-transcripts``
    Unit: the early-reply tree run of ``sampling-early-reply`` with 1000
    trials and ``--transcripts``.  This is the write side of the session
    core.  It shows when a change speeds one of ``run_session`` and the
    fast path at the other's cost.
``sampling-mc``
    Unit: ``df mc --protocol tree -n 6`` with 4000 samples.  It exercises
    the per-labeling max-occurrence loop and does no MFS work.
``sat-reduction``
    Unit: ``reduce F.cnf --out G.json --verify`` on one satisfiable and one
    unsatisfiable formula.  The seeded random 3-CNF corpus has 12 variables
    and clause ratio 4.26, and its DIMACS files are written during set-up.
    Each formula is one large MFS solve: a gadget of about 1,200 vertices
    with about 180k walks in walk mode.  This contrasts with the many tiny
    solves of the sampling workloads.  A tree-only MFS change, such as a
    prefix merge, moves the sampling workloads and not this one.  A change
    to general walk enumeration moves this one.  The workload also covers
    gadget JSON writes and the maximal-walk checker.

Each workload runs in its own process.  The three families the benchmark
was planned with (exact sweep, sampling, SAT reduction) became seven
workloads because every workload reports the same end-to-end metrics, so
each sampling phase needs a workload of its own to keep its own bound.

End-to-end metrics (``--trace 0``, tracing off)
-----------------------------------------------
``setup_s``       Fresh interpreter to inputs ready: importing mfskit and
                  generating graphs and CNF files.  Median of 5 set-ups,
                  each in a new interpreter.
``peak_rss_mib``  Peak resident memory of the benchmark process.
``ops_per_ref``   Work done per reference loop: the median over units of
                  (work / unit time) x (reference-loop time).  The work is
                  one sweep for ``exact-sweep``, one session for the
                  ``simulate`` workloads, one labeling for
                  ``sampling-mc`` and one formula reduced and verified for
                  ``sat-reduction``.

The reference loop is a fixed pure-Python loop that does not use mfskit.
It runs for a third of each unit's time right before and right after the
unit, and the mean of those loop times is the unit's reference time.  On
the shared machine the benchmark was written on, the speed of the CPU a
process gets changes from moment to moment by up to half, so work per
second spread by a quarter between runs of the same code.  Such a change
slows the reference loop about as much as mfskit, so work per reference
loop spreads by a tenth or less.  The info line also gives the plain
``ops_per_s`` and the median reference-loop time, for reading the
numbers on a quiet machine.

Failed operations over attempted ones are the result's ``failed`` and
``attempted``, and the info line gives their ratio as ``fail_ratio``.  A
non-zero exit or a failed output check counts as failed.  It is not an
end-to-end metric, because it is 0 when everything works.

Per-layer metrics (``--trace 1``)
---------------------------------
The layers are the mfskit modules: cli, generators, graphs, walks, fraud,
dyadic, protocol, reduction and cnf.  The traced run alternates untraced
and traced repetitions of unit 0.  Spans are taken around calls into each
module's public functions, from ``bench/tracing.py``.  Counts and times are
per unit, as the median over traced units.  A metric of a layer that a
workload does not exercise reads 0.  ``trace.overhead_ratio`` is the
median traced unit time over the median untraced unit time.

Which layer metric moves which end-to-end metric (``ops_per_ref`` unless
named otherwise):

========================================================  ================================================
layer metric                                               moves ``ops_per_ref`` on
========================================================  ================================================
fraud.expected_max_tree.n8_s, .n9_s, fraud.round_growth   exact-sweep; stay 0 on the other workloads
fraud.thresholds, .thresholds_trivial, .cdf_max_bits      explain ops_per_ref and peak_rss_mib, exact-sweep
walks.most_frequent_sequence.calls, .self_s, .mean_us,    sampling-early-reply, sampling-ring,
walks.enumerate_walk_sequences.self_s,                    sampling-transcripts and sat-reduction;
walks.count_walks.calls_per_mfs, walks.mfs.*              sampling-honest must not move
protocol.label_graph_from_prf.calls, .mean_us             every simulate workload; not sampling-mc
protocol.session.other_us, protocol.run_session.mean_us,  sampling-transcripts and sampling-early-reply
protocol.transcript_bytes
protocol.accept_ratio.<strategy>                          useful outcomes over attempts
fraud.monte_carlo_expected_max.us_per_labeling            sampling-mc
fraud.brute_force_expected_max.self_s                     none: the output-check oracle, timed in traced
                                                          runs of exact-sweep and sampling-ring
reduction.*, cnf.brute_force_sat.self_s,                  sat-reduction
cnf.parse_dimacs.self_s, graphs.graph_to_dict.self_s
cli.output_bytes                                          sat-reduction, sampling-transcripts
<layer>.self_s                                            the workloads that exercise that layer
trace.overhead_ratio                                      none: the cost of tracing, per workload
========================================================  ================================================

Counts that repeat exactly are recorded in ``bench/baseline.json``:
``walks.count_walks.calls_per_mfs`` (2.0, because auto mode counts the
walks and the walk enumerator counts them again),
``reduction.reduce_sat_to_mfs.calls_per_formula`` (2.0, because
``reduce --verify`` builds the gadget twice), and ``fraud.thresholds``
(1031) and ``fraud.thresholds_trivial`` (18) for n=1..9.

Output checks
-------------
- exact E[M] for n=1..3 equals ``brute_force_expected_max`` on
  ``make_tree(n)``; n=2 gives 9/4, as the CLI golden file records; n=4..9
  equal the values in ``bench/baseline.json``.
- the pooled early-reply tree n=4 rate is within 4 sigma of exact
  E[M]/16 (about 0.27289).  The ring n=6 rate is within 4 sigma of the
  brute-force E[M]/64 (about 0.18312).  The honest rate is exactly 1.
  The pooled ``df mc`` n=6 result is within 4 sigma of exact E[M]/64.
- every transcript's ``accepted`` flag equals the fast-path decision for
  the same trial.
- every ``reduce --verify`` exits 0, its ``satisfiable`` equals the
  verdict of ``brute_force_sat``, and the formulas reduced hold both
  verdicts.
- in traced runs, the self times under every span sum to no more than
  the span.

Exclusions
----------
- n=10 in the exact sweep: it takes about 28 s per run, and n=9 runs the
  same code in about 2.3 s.
- ``--threads``: ``nproc`` is 2 on the shared machine the benchmark was
  written on, so worker-pool timings would measure the neighbours.
- ``--float --force``: n=12 took 241 s.  The certified sweep that is to
  replace it adds its own workload when it lands.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from math import sqrt
from pathlib import Path

from tracing import NAME, Tracer, nesting_violations, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE_FILE = HERE / "baseline.json"

FULL = {
    "sweep_hi": 9, "early": 2000, "honest": 4000, "ring": 1000,
    "transcripts": 1000, "mc": 4000, "cnf_vars": 12, "cnf_pairs": 6,
    "setup_reps": 5,
}
SMOKE = {
    "sweep_hi": 5, "early": 40, "honest": 40, "ring": 40,
    "transcripts": 40, "mc": 200, "cnf_vars": 6, "cnf_pairs": 1,
    "setup_reps": 2,
}
CLAUSE_RATIO = 4.26
MIN_UNITS = 3
REF_ITERATIONS = 40_000
REF_SHARE = 1 / 3

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ops_per_ref", "1/ref", "higher"),
]
LAYERS = ("cli", "generators", "graphs", "walks", "fraud", "dyadic",
          "protocol", "reduction", "cnf")
PER_LAYER = [
    ("fraud.expected_max_tree.n8_s", "s", "lower"),
    ("fraud.expected_max_tree.n9_s", "s", "lower"),
    ("fraud.round_growth", "ratio", "lower"),
    ("fraud.thresholds", "count", "lower"),
    ("fraud.thresholds_trivial", "count", "higher"),
    ("fraud.cdf_max_bits", "bits", "lower"),
    ("walks.most_frequent_sequence.calls", "count", "lower"),
    ("walks.most_frequent_sequence.self_s", "s", "lower"),
    ("walks.most_frequent_sequence.mean_us", "us", "lower"),
    ("walks.enumerate_walk_sequences.self_s", "s", "lower"),
    ("walks.count_walks.calls_per_mfs", "ratio", "lower"),
    ("walks.mfs.walks_enumerated", "count", "lower"),
    ("walks.mfs.seq_mode_share", "ratio", "lower"),
    ("walks.mfs.ties", "count", "lower"),
    ("protocol.label_graph_from_prf.calls", "count", "lower"),
    ("protocol.label_graph_from_prf.mean_us", "us", "lower"),
    ("protocol.session.other_us", "us", "lower"),
    ("protocol.run_session.mean_us", "us", "lower"),
    ("protocol.transcript_bytes", "bytes", "lower"),
    ("protocol.accept_ratio.early-reply", "ratio", "higher"),
    ("protocol.accept_ratio.honest", "ratio", "higher"),
    ("fraud.monte_carlo_expected_max.us_per_labeling", "us", "lower"),
    ("fraud.brute_force_expected_max.self_s", "s", "lower"),
    ("reduction.reduce_sat_to_mfs.calls_per_formula", "ratio", "lower"),
    ("reduction.reduce_sat_to_mfs.self_s", "s", "lower"),
    ("reduction.gadget_vertices", "count", "lower"),
    ("reduction.verify_reduction.self_s", "s", "lower"),
    ("reduction.check_maximal_walks.self_s", "s", "lower"),
    ("reduction.maximal_walks", "count", "lower"),
    ("cnf.brute_force_sat.self_s", "s", "lower"),
    ("cnf.parse_dimacs.self_s", "s", "lower"),
    ("graphs.graph_to_dict.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]


def load_mfskit():
    """Import mfskit from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import mfskit.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import mfskit from {src}: {exc}") from None
    if not Path(mfskit.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: mfskit was imported from {mfskit.__file__}, not {src}")
    return mfskit


# -- set-up ----------------------------------------------------------------------


def random_3cnf(cnf, rng: random.Random, n: int):
    clauses = []
    for _ in range(round(CLAUSE_RATIO * n)):
        variables = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.getrandbits(1) else -v for v in variables))
    return cnf.CnfFormula(n, tuple(clauses))


def setup(workload: str, seed: int, directory: str, smoke: bool) -> dict:
    """Import mfskit and make the workload's inputs: the graphs the output
    checks need and, for sat-reduction, the DIMACS corpus.  The corpus
    alternates satisfiable and unsatisfiable formulas, one of each per
    unit."""
    mfskit = load_mfskit()
    sizes = SMOKE if smoke else FULL
    gen = mfskit.generators
    inputs: dict = {
        "exact-sweep": lambda: {"trees": {n: gen.make_tree(n) for n in (1, 2, 3)}},
        "sampling-ring": lambda: {"ring": gen.make_poulidor(6)},
        "sampling-transcripts": lambda: {"tree": gen.make_tree(4)},
    }.get(workload, dict)()
    if workload == "sat-reduction":
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        found: dict[bool, list] = {True: [], False: []}
        while min(len(v) for v in found.values()) < sizes["cnf_pairs"]:
            formula = random_3cnf(mfskit.cnf, rng, sizes["cnf_vars"])
            found[mfskit.cnf.brute_force_sat(formula) is not None].append(formula)
        pairs = []
        for k in range(sizes["cnf_pairs"]):
            pair = []
            for verdict in (True, False):
                path = out / f"f{k}-{'sat' if verdict else 'unsat'}.cnf"
                path.write_text(found[verdict][k].to_dimacs(), encoding="utf-8")
                pair.append((str(path), verdict))
            pairs.append(pair)
        inputs["pairs"] = pairs
    return inputs


def time_setup(workload: str, seed: int, work: Path, smoke: bool, reps: int) -> float:
    """Median wall time of `reps` set-ups, each in a fresh interpreter."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run.setup(sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5] == '1')")
    times = []
    for r in range(reps):
        argv = [sys.executable, "-c", code, str(HERE), workload, str(seed),
                str(work / f"setup-{r}"), "1" if smoke else "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
    return statistics.median(times)


# -- workloads -----------------------------------------------------------------------


class Workload:
    """One unit of CLI commands per index, with the checks of their output.

    `work` is the amount of work one unit does (sweeps, sessions,
    labelings or formulas); `facts` holds values read from unit 0's output
    for the per-layer metrics."""

    work = 1

    def __init__(self, mfskit, sizes: dict, seed: int, inputs: dict, work_dir: Path):
        self.mfskit = mfskit
        self.sizes = sizes
        self.seed = seed
        self.inputs = inputs
        self.work_dir = work_dir
        self.facts: dict = {}
        self.recorded = json.loads(BASELINE_FILE.read_text(encoding="utf-8"))

    def unit_seed(self, i: int) -> int:
        return self.seed * 1_000_000 + i

    def unit(self, i: int) -> list[list[str]]:
        raise NotImplementedError

    def oracle(self) -> None:
        """Reference values the checks need, computed before timing."""

    def check(self, i: int, argv: list[str], out: str, err: str) -> list[str]:
        """Problems with one command's output; records what the final
        checks pool."""
        return []

    def final(self) -> list[str]:
        """Problems found by the checks over the whole run."""
        return []


class ExactSweep(Workload):
    def unit(self, i):
        return [["df", "exact-tree", "--sweep", f"1:{self.sizes['sweep_hi']}"]]

    def oracle(self):
        brute = self.mfskit.fraud.brute_force_expected_max
        self.brute = {n: brute(g, 0, n) for n, g in self.inputs["trees"].items()}

    def check(self, i, argv, out, err):
        problems = []
        reports = json.loads(out)
        hi = self.sizes["sweep_hi"]
        if [r["rounds"] for r in reports] != list(range(1, hi + 1)):
            return [f"sweep covers rounds {[r['rounds'] for r in reports]}"]
        for r in reports:
            n = r["rounds"]
            e = Fraction(r["expected_max"]["numerator"], r["expected_max"]["denominator"])
            p = Fraction(r["success_probability"]["numerator"],
                         r["success_probability"]["denominator"])
            if p != e / (1 << n):
                problems.append(f"n={n}: success probability {p} is not E[M]/2^n")
            if n in self.brute and e != self.brute[n]:
                problems.append(f"n={n}: E[M]={e}, brute force gives {self.brute[n]}")
            if n == 2 and e != Fraction(9, 4):
                problems.append(f"n=2: E[M]={e}, expected 9/4")
            recorded = self.recorded["expected_max"].get(str(n))
            if n >= 4 and recorded is not None and e != Fraction(recorded):
                problems.append(f"n={n}: E[M]={e} differs from the recorded value")
        return problems


class Simulate(Workload):
    def __init__(self, *args, protocol: str, rounds: int, adversary: str,
                 trials_key: str, transcripts: bool = False):
        super().__init__(*args)
        self.protocol, self.rounds, self.adversary = protocol, rounds, adversary
        self.work = self.sizes[trials_key]
        self.transcripts = self.work_dir / "transcripts.jsonl" if transcripts else None
        self.pooled: dict[int, tuple[int, int]] = {}

    def unit(self, i):
        argv = ["simulate", "--protocol", self.protocol, "-n", str(self.rounds),
                "--trials", str(self.work), "--adversary", self.adversary,
                "--seed", str(self.unit_seed(i))]
        if self.transcripts is not None:
            argv += ["--transcripts", str(self.transcripts)]
        return [argv]

    def oracle(self):
        self.rate = (None if self.adversary == "honest"
                     else Fraction(self.recorded["expected_max"]["4"]) / 16)

    def check(self, i, argv, out, err):
        report = json.loads(out)
        if (report["trials"], report["strategy"]) != (self.work, self.adversary):
            return [f"report is for {report['trials']} {report['strategy']} trials"]
        accepted = report["accepted"]
        self.pooled[i] = (accepted, self.work)
        if i == 0:
            self.facts[f"accept_ratio.{self.adversary}"] = accepted / self.work
        problems = []
        if self.adversary == "honest" and accepted != self.work:
            problems.append(f"honest prover accepted {accepted} of {self.work}")
        if self.transcripts is not None:
            problems += self.check_transcripts(i, accepted)
        return problems

    def check_transcripts(self, i, accepted):
        protocol = self.mfskit.protocol
        config = protocol.ProtocolConfig(
            graph=self.inputs["tree"], start=0, rounds=self.rounds,
            trials=self.work, seed=self.unit_seed(i))
        strategy = protocol.AdversaryStrategy(self.adversary)
        text = self.transcripts.read_text(encoding="utf-8")
        lines = text.splitlines()
        if i == 0:
            self.facts["transcript_bytes"] = len(text) / max(len(lines), 1)
        if len(lines) != self.work:
            return [f"{len(lines)} transcripts for {self.work} trials"]
        flags = [json.loads(line)["accepted"] for line in lines]
        problems = [
            f"trial {t}: transcript accepted={flag}, fast path disagrees"
            for t, flag in enumerate(flags)
            if flag != protocol._session_accepts(config, strategy, t, self.mfskit.DEFAULT_LIMITS)
        ]
        if sum(flags) != accepted:
            problems.append(f"{sum(flags)} accepted transcripts, report says {accepted}")
        return problems

    def final(self):
        if self.rate is None:
            return []
        if not self.pooled:
            return ["no simulate result to pool"]
        accepted = sum(a for a, _ in self.pooled.values())
        trials = sum(t for _, t in self.pooled.values())
        p = float(self.rate)
        sigma = sqrt(p * (1 - p) / trials)
        if abs(accepted / trials - p) > 4 * sigma:
            return [f"rate {accepted}/{trials} is more than 4 sigma from {p:.5f}"]
        return []


class SimulateRing(Simulate):
    def oracle(self):
        self.brute = self.mfskit.fraud.brute_force_expected_max(self.inputs["ring"], 0, 6)
        self.rate = self.brute / 64

    def final(self):
        problems = super().final()
        if self.brute != Fraction(self.recorded["ring_n6"]):
            problems.append(f"ring brute force gives {self.brute}, "
                            f"recorded {self.recorded['ring_n6']}")
        return problems


class MonteCarlo(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.work = self.sizes["mc"]
        self.pooled: dict[int, tuple[float, float]] = {}

    def unit(self, i):
        return [["df", "mc", "--protocol", "tree", "-n", "6",
                 "--samples", str(self.work), "--seed", str(self.unit_seed(i))]]

    def check(self, i, argv, out, err):
        report = json.loads(out)
        if (report["method"], report["samples"]) != ("monte-carlo", self.work):
            return [f"report is {report['method']} with {report['samples']} samples"]
        self.pooled[i] = (report["success_probability"]["decimal"], report["std_error"])
        if i == 0:
            self.facts["samples"] = self.work
        return []

    def final(self):
        if not self.pooled:
            return ["no mc result to pool"]
        exact = float(Fraction(self.recorded["expected_max"]["6"]) / 64)
        estimate = statistics.fmean(p for p, _ in self.pooled.values())
        se = sqrt(sum(s * s for _, s in self.pooled.values())) / len(self.pooled)
        if abs(estimate - exact) > 4 * se:
            return [f"mc estimate {estimate:.5f} is more than 4 sigma from {exact:.5f}"]
        return []


class SatReduction(Workload):
    work = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.expected: dict[str, bool] = {}
        self.verdicts: set[bool] = set()

    def unit(self, i):
        pair = self.inputs["pairs"][i % len(self.inputs["pairs"])]
        for path, verdict in pair:
            self.expected[path] = verdict
        return [["reduce", path, "--out", str(self.work_dir / f"{Path(path).stem}.json"),
                 "--verify"] for path, _ in pair]

    def check(self, i, argv, out, err):
        summary = json.loads(err)
        gadget = json.loads(Path(argv[3]).read_text(encoding="utf-8"))
        if i == 0:
            self.facts["formulas"] = self.work
        problems = []
        expected = self.expected[argv[1]]
        if summary["satisfiable"] != expected:
            problems.append(f"{argv[1]}: satisfiable={summary['satisfiable']}, "
                            f"brute force says {expected}")
        if not (summary["equivalence_ok"] and summary["walk_lengths_ok"]):
            problems.append(f"{argv[1]}: verification failed: {summary['detail']}")
        if gadget["params"]["variables"] != self.sizes["cnf_vars"]:
            problems.append(f"{argv[1]}: gadget params {gadget['params']}")
        self.verdicts.add(summary["satisfiable"])
        return problems

    def final(self):
        if self.verdicts != {True, False}:
            return [f"the reduced formulas hold only satisfiable={self.verdicts}"]
        return []


WORKLOADS = {
    "exact-sweep": ExactSweep,
    "sampling-early-reply": lambda *a: Simulate(
        *a, protocol="tree", rounds=4, adversary="early-reply", trials_key="early"),
    "sampling-honest": lambda *a: Simulate(
        *a, protocol="tree", rounds=4, adversary="honest", trials_key="honest"),
    "sampling-ring": lambda *a: SimulateRing(
        *a, protocol="poulidor", rounds=6, adversary="early-reply", trials_key="ring"),
    "sampling-transcripts": lambda *a: Simulate(
        *a, protocol="tree", rounds=4, adversary="early-reply", trials_key="transcripts",
        transcripts=True),
    "sampling-mc": MonteCarlo,
    "sat-reduction": SatReduction,
}


# -- running -------------------------------------------------------------------------


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


class Run:
    """Runs units of a workload, checks every command, and counts failures."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.cli = wl.mfskit.cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def execute(self, i: int, tracer: Tracer | None = None) -> tuple[float, list]:
        """Run unit i's commands; returns the timed seconds and their results."""
        results = []
        t0 = time.perf_counter()
        for argv in self.wl.unit(i):
            if tracer is None:
                results.append((argv, call_cli(self.cli, argv)))
            else:
                with tracer.span("cli.main"):
                    results.append((argv, call_cli(self.cli, argv)))
        return time.perf_counter() - t0, results

    def check(self, i: int, results: list) -> int:
        """Check unit i's results; returns the bytes the commands wrote."""
        out_bytes = 0
        for argv, (rc, out, err) in results:
            out_bytes += len(out) + len(err) + sum(
                os.path.getsize(argv[k + 1]) for k, a in enumerate(argv)
                if a in ("--out", "--transcripts"))
            if rc != 0:
                self.record([f"{' '.join(argv)} exited {rc}: {err.strip()[-500:]}"])
                continue
            try:
                self.record(self.wl.check(i, argv, out, err))
            except (ValueError, KeyError, TypeError, OSError) as exc:
                self.record([f"{' '.join(argv)}: unreadable output: {exc!r}"])
        return out_bytes

    def unit(self, i: int) -> float:
        """Run and check unit i untraced; returns the timed seconds."""
        elapsed, results = self.execute(i)
        self.check(i, results)
        return elapsed

    def final(self) -> None:
        self.record(self.wl.final())


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that does not use mfskit."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    x = 1
    for _ in range(REF_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        counts[x >> 21] = counts.get(x >> 21, 0) + 1
    return time.perf_counter() - t0


def reference_speed(seconds: float) -> float:
    """Mean reference-loop time over at least `seconds` of repetitions."""
    times = [reference_loop()]
    while sum(times) < seconds:
        times.append(reference_loop())
    return statistics.fmean(times)


def timed_run(run: Run, seconds: float) -> tuple[list[float], list[float]]:
    """Time units until `seconds` of timed work.  Returns the unit times and,
    for each unit, the mean reference-loop time over the stretches right
    before and right after it, each a third as long as the unit."""
    run.wl.oracle()
    times: list[float] = []
    refs = [reference_speed(0)]
    while sum(times) < seconds or len(times) < MIN_UNITS:
        times.append(run.unit(len(times)))
        refs.append(reference_speed(times[-1] * REF_SHARE))
    run.final()
    return times, [(a + b) / 2 for a, b in zip(refs, refs[1:])]


def install(tracer: Tracer, mfskit) -> None:
    """Wrap each layer's public functions under the names their callers use."""
    cli, fraud, walks = mfskit.cli, mfskit.fraud, mfskit.walks
    protocol, reduction = mfskit.protocol, mfskit.reduction
    mfs_note = lambda r: r.tie_count  # noqa: E731
    gadget_note = lambda r: r.graph.vertex_count  # noqa: E731
    for module, attr, name, note in [
        (cli, "make_tree", "generators.make_tree", None),
        (cli, "make_poulidor", "generators.make_poulidor", None),
        (cli, "graph_to_dict", "graphs.graph_to_dict", None),
        (cli, "parse_dimacs", "cnf.parse_dimacs", None),
        (cli, "expected_max_tree", "fraud.expected_max_tree", lambda r: r),
        (cli, "distance_fraud_probability", "fraud.distance_fraud_probability", None),
        (cli, "monte_carlo_expected_max", "fraud.monte_carlo_expected_max", None),
        (cli, "estimate_success_rate", "protocol.estimate_success_rate", None),
        (cli, "run_session", "protocol.run_session", None),
        (cli, "reduce_sat_to_mfs", "reduction.reduce_sat_to_mfs", gadget_note),
        (cli, "verify_reduction", "reduction.verify_reduction", None),
        (cli, "check_maximal_walks", "reduction.check_maximal_walks",
         lambda v: v.full_walks + v.dead_end_walks),
        (fraud, "brute_force_expected_max", "fraud.brute_force_expected_max", None),
        (fraud, "count_walks", "walks.count_walks", int),
        (fraud, "walks_from", "walks.walks_from", None),
        (fraud, "DyadicProbability", "dyadic.DyadicProbability", None),
        (walks, "count_walks", "walks.count_walks", int),
        (walks, "enumerate_walk_sequences", "walks.enumerate_walk_sequences", None),
        (protocol, "most_frequent_sequence", "walks.most_frequent_sequence", mfs_note),
        (reduction, "most_frequent_sequence", "walks.most_frequent_sequence", mfs_note),
        (reduction, "reduce_sat_to_mfs", "reduction.reduce_sat_to_mfs", gadget_note),
        (reduction, "brute_force_sat", "cnf.brute_force_sat", None),
        (reduction, "satisfies", "cnf.satisfies", None),
        (reduction, "build_leaf_tree", "reduction.build_leaf_tree", None),
    ]:
        tracer.wrap(module, attr, name, note)
    # the CLI builds its ProtocolConfig with the default labeler; the
    # public labeler hook times it without touching the package
    config = protocol.ProtocolConfig
    labeler = tracer.traced(protocol.label_graph_from_prf, "protocol.label_graph_from_prf")
    tracer.patch(cli, "ProtocolConfig", lambda **kw: config(labeler=labeler, **kw))


@contextmanager
def traced_layers(tracer: Tracer, mfskit):
    install(tracer, mfskit)
    try:
        yield
    finally:
        tracer.uninstall()


MFS = "walks.most_frequent_sequence"
ENUM = "walks.enumerate_walk_sequences"
LABELER = "protocol.label_graph_from_prf"


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def unit_layer_metrics(spans, lo: int, hi: int, facts: dict, ops: int,
                       out_bytes: int) -> dict:
    """Per-layer metrics of the traced unit whose spans are spans[lo:hi]."""
    own = self_times(spans, lo, hi)
    calls: Counter = Counter()
    dur: defaultdict = defaultdict(float)
    selfs: defaultdict = defaultdict(float)
    layer: defaultdict = defaultdict(float)
    sweep: dict[int, float] = {}
    walk_mode = set()
    cdf: list = []
    mfs_counts = enumerated = ties = gadget = maximal = 0
    for k in range(lo + 1, hi):
        name, start, end, parent, note = spans[k]
        calls[name] += 1
        dur[name] += end - start
        selfs[name] += own[k - lo]
        layer[name.partition(".")[0]] += own[k - lo]
        parent_name = spans[parent][NAME]
        if name == ENUM and parent_name == MFS:
            walk_mode.add(parent)
        elif name == "walks.count_walks" and parent_name in (MFS, ENUM):
            mfs_counts += 1
            if parent_name == ENUM:
                enumerated += note
        elif name == MFS:
            ties += note
        elif name == "fraud.expected_max_tree":
            sweep[note.rounds] = end - start
            cdf += note.cdf.values
        elif name == "reduction.reduce_sat_to_mfs":
            gadget += note
        elif name == "reduction.check_maximal_walks":
            maximal += note
    n_mfs, n_lab = calls[MFS], calls[LABELER]
    sessions = dur["protocol.estimate_success_rate"] + dur["protocol.run_session"]
    metrics = {
        "fraud.expected_max_tree.n8_s": sweep.get(8, 0.0),
        "fraud.expected_max_tree.n9_s": sweep.get(9, 0.0),
        "fraud.round_growth": _per(sweep.get(9, 0.0), sweep.get(8, 0.0)),
        "fraud.thresholds": len(cdf),
        "fraud.thresholds_trivial": sum(1 for v in cdf if v.log2_denominator == 0),
        "fraud.cdf_max_bits": max((v.numerator.bit_length() for v in cdf), default=0),
        "walks.most_frequent_sequence.calls": n_mfs,
        "walks.most_frequent_sequence.self_s": selfs[MFS],
        "walks.most_frequent_sequence.mean_us": _per(dur[MFS], n_mfs) * 1e6,
        "walks.enumerate_walk_sequences.self_s": selfs[ENUM],
        "walks.count_walks.calls_per_mfs": _per(mfs_counts, n_mfs),
        "walks.mfs.walks_enumerated": enumerated,
        "walks.mfs.seq_mode_share": _per(n_mfs - len(walk_mode), n_mfs),
        "walks.mfs.ties": _per(ties, n_mfs),
        "protocol.label_graph_from_prf.calls": n_lab,
        "protocol.label_graph_from_prf.mean_us": _per(dur[LABELER], n_lab) * 1e6,
        "protocol.session.other_us": _per(sessions - dur[LABELER] - dur[MFS], n_lab) * 1e6,
        "protocol.run_session.mean_us":
            _per(dur["protocol.run_session"], calls["protocol.run_session"]) * 1e6,
        "protocol.transcript_bytes": facts.get("transcript_bytes", 0),
        "protocol.accept_ratio.early-reply": facts.get("accept_ratio.early-reply", 0.0),
        "protocol.accept_ratio.honest": facts.get("accept_ratio.honest", 0.0),
        "fraud.monte_carlo_expected_max.us_per_labeling":
            _per(dur["fraud.monte_carlo_expected_max"], facts.get("samples", 0)) * 1e6,
        "reduction.reduce_sat_to_mfs.calls_per_formula":
            _per(calls["reduction.reduce_sat_to_mfs"], facts.get("formulas", 0)),
        "reduction.reduce_sat_to_mfs.self_s": selfs["reduction.reduce_sat_to_mfs"],
        "reduction.gadget_vertices": _per(gadget, calls["reduction.reduce_sat_to_mfs"]),
        "reduction.verify_reduction.self_s": selfs["reduction.verify_reduction"],
        "reduction.check_maximal_walks.self_s": selfs["reduction.check_maximal_walks"],
        "reduction.maximal_walks": _per(maximal, calls["reduction.check_maximal_walks"]),
        "cnf.brute_force_sat.self_s": selfs["cnf.brute_force_sat"],
        "cnf.parse_dimacs.self_s": selfs["cnf.parse_dimacs"],
        "graphs.graph_to_dict.self_s": selfs["graphs.graph_to_dict"],
        "cli.output_bytes": _per(out_bytes, ops),
    }
    metrics.update({f"{name}.self_s": layer[name] for name in LAYERS})
    return metrics


def traced_run(run: Run, seconds: float) -> dict:
    """Alternate untraced and traced repetitions of unit 0 and derive the
    per-layer metrics from the traced ones."""
    tracer = Tracer()
    with traced_layers(tracer, run.wl.mfskit), tracer.span("bench.oracle"):
        run.wl.oracle()
    oracle_end = len(tracer.spans)

    plain: list[float] = []
    traced: list[tuple[float, int, int, int]] = []
    while sum(plain) + sum(t[0] for t in traced) < seconds or len(traced) < 2:
        plain.append(run.unit(0))
        lo = len(tracer.spans)
        with traced_layers(tracer, run.wl.mfskit), tracer.span("bench.unit"):
            elapsed, results = run.execute(0, tracer)
        traced.append((elapsed, run.check(0, results), lo, len(tracer.spans)))
    run.final()

    violations = nesting_violations(tracer.spans)
    run.record([f"{violations} spans have children outside their time"]
               if violations else [])
    ops = len(run.wl.unit(0))
    per_unit = [unit_layer_metrics(tracer.spans, lo, hi, run.wl.facts, ops, nbytes)
                for _, nbytes, lo, hi in traced]
    metrics = {name: statistics.median(m[name] for m in per_unit) for name in per_unit[0]}
    oracle_self = self_times(tracer.spans, 0, oracle_end)
    metrics["fraud.brute_force_expected_max.self_s"] = sum(
        own for s, own in zip(tracer.spans[:oracle_end], oracle_self)
        if s[NAME] == "fraud.brute_force_expected_max")
    metrics["trace.overhead_ratio"] = (
        statistics.median(t[0] for t in traced) / statistics.median(plain))
    return metrics


# -- reporting -----------------------------------------------------------------------


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "seed": seed,
    }


def unit_summary(times: list[float]) -> dict:
    """Median and the highest percentile with at least ten units beyond it."""
    ordered = sorted(times)
    summary = {"count": len(ordered), "median": statistics.median(ordered)}
    if len(ordered) > 10:
        summary[f"p{100 * (len(ordered) - 10) // len(ordered)}"] = ordered[-11]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for bench/smoke.py")
    args = parser.parse_args(argv)

    mfskit = load_mfskit()
    sizes = SMOKE if args.smoke else FULL
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        inputs = setup(args.workload, args.seed, str(work / "inputs"), args.smoke)
        wl = WORKLOADS[args.workload](mfskit, sizes, args.seed, inputs, work)
        run = Run(wl)
        if args.trace:
            metrics = traced_run(run, args.seconds)
            units = {}
            declared = PER_LAYER
        else:
            setup_s = time_setup(args.workload, args.seed, work, args.smoke,
                                 sizes["setup_reps"])
            times, refs = timed_run(run, args.seconds)
            metrics = {
                "setup_s": setup_s,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ops_per_ref": statistics.median(
                    wl.work * r / t for t, r in zip(times, refs)),
            }
            units = unit_summary(times)
            units["ops_per_s"] = statistics.median(wl.work / t for t in times)
            units["reference_loop_s"] = statistics.median(refs)
            declared = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "smoke": args.smoke, "work_per_unit": wl.work, "units_s": units,
        "checks": run.attempted,
        "fail_ratio": run.failed / run.attempted,
        "environment": environment(args.seed),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
