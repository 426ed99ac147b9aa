import argparse
import json
import os
import subprocess
import sys
import threading
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from mfskit import (
    LabeledDigraph, ReductionVerdict, cli, fraud, read_graph, walks, write_graph,
)
from mfskit.cli import EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, EXIT_VERIFY, build_parser, main

GOLDEN = Path(__file__).parent / "golden"

EXAMPLE_CNF = "p cnf 3 3\n1 -2 0\n2 -3 0\n-1 -2 -3 0\n"


def run(capsys, argv, expect=EXIT_OK):
    code = main(argv)
    out = capsys.readouterr()
    assert code == expect, out.err or out.out
    return out


def test_generate_matches_golden(capsys, tmp_path):
    out = run(capsys, ["generate", "tree", "-n", "2", "--labels", "0100110"])
    assert out.out == (GOLDEN / "tree_n2.json").read_text()
    # the comma-separated form reads the same labels
    comma = run(capsys, ["generate", "tree", "-n", "2", "--labels", "0, 1,0,0,1,1,0"])
    assert comma.out == out.out


def test_generate_gentree_matches_golden(capsys, tmp_path):
    out = run(capsys, ["generate", "gentree", "-m", "2", "-n", "3"])
    assert out.out == (GOLDEN / "gentree_m2_n3.json").read_text()
    run(capsys, ["generate", "gentree", "-m", "2", "-n", "3", "--out", str(tmp_path / "g.json")])
    assert (tmp_path / "g.json").read_text() == out.out


def test_generate_seeded_deterministic(capsys):
    first = run(capsys, ["generate", "poulidor", "-n", "3", "--seed", "5"]).out
    second = run(capsys, ["generate", "poulidor", "-n", "3", "--seed", "5"]).out
    assert first == second


def test_generate_gentree_degenerate(capsys):
    out = run(capsys, ["generate", "gentree", "-n", "3", "-m", "0"])
    data = json.loads(out.out)
    assert len(data["vertices"]) == 1 and data["edges"] == []


def test_generate_empty_labels_refused(capsys):
    out = run(capsys, ["generate", "tree", "-n", "1", "--labels", ""], expect=EXIT_INPUT)
    assert out.out == ""
    assert out.err == "error: explicit labeling has 0 entries for 3 vertices\n"


def test_start_without_full_walk_refused(capsys):
    # vertex 1 sits one level above the leaves: no walk of 3 vertices
    out = run(capsys, ["df", "mc", "--graph", str(GOLDEN / "tree_n2.json"), "-n", "2",
                       "--start", "1", "--samples", "10"], expect=EXIT_INPUT)
    assert out.out == ""
    assert out.err == "error: no walk of 3 vertices starts at vertex 1\n"


def test_mfs_pipeline_matches_golden(capsys, tmp_path):
    graph = tmp_path / "g.json"
    run(capsys, ["generate", "tree", "-n", "2", "--labels", "0100110",
                 "--out", str(graph)])
    out = run(capsys, ["mfs", str(graph), "--length", "3"])
    assert out.out == (GOLDEN / "mfs_tree_n2.json").read_text()


def test_mfs_worked_example(capsys, tmp_path):
    graph = tmp_path / "tree.json"
    run(capsys, ["generate", "tree", "-n", "3",
                 "--labels", "010011100100100", "--out", str(graph)])
    report = json.loads(run(capsys, ["mfs", str(graph), "--length", "4"]).out)
    assert (report["sequence"], report["count"]) == ("0010", 3)


def test_df_exact_matches_golden(capsys):
    out = run(capsys, ["df", "exact-tree", "-n", "2"])
    assert out.out == (GOLDEN / "df_exact_n2.json").read_text()


def test_df_exact_sweep_matches_golden(capsys):
    out = run(capsys, ["df", "exact-tree", "--sweep", "1:8"])
    assert out.out == (GOLDEN / "df_exact_sweep_1_8.json").read_text()


def test_env_limit_read_when_the_cli_runs(capsys, monkeypatch):
    monkeypatch.setenv("MFSKIT_MAX_EXACT_ROUNDS", "3")
    run(capsys, ["df", "exact-tree", "-n", "4"], expect=EXIT_RESOURCE)
    run(capsys, ["df", "exact-tree", "-n", "4", "--max-exact-rounds", "4"])


def test_df_exact_smallest(capsys):
    report = json.loads(run(capsys, ["df", "exact-tree", "-n", "1"]).out)
    assert report["success_probability"]["decimal"] == 0.75


def test_df_brute_equals_exact(capsys):
    exact = json.loads(run(capsys, ["df", "exact-tree", "-n", "2"]).out)
    brute = json.loads(
        run(capsys, ["df", "brute", "--protocol", "tree", "-n", "2"]).out
    )
    assert brute["expected_max"]["numerator"] == exact["expected_max"]["numerator"]
    assert brute["expected_max"]["denominator"] == exact["expected_max"]["denominator"]


def test_df_mc_reproducible(capsys):
    argv = ["df", "mc", "--protocol", "poulidor", "-n", "3",
            "--samples", "2000", "--seed", "21"]
    assert run(capsys, argv).out == run(capsys, argv).out


def test_df_exact_threads_match_serial(capsys):
    serial = run(capsys, ["df", "exact-tree", "-n", "3"]).out
    parallel = run(capsys, ["df", "exact-tree", "-n", "3", "--threads", "2"]).out
    assert serial == parallel


@pytest.mark.parametrize("value", ["0", "-2"])
def test_df_exact_threads_below_one(capsys, value):
    out = run(capsys, ["df", "exact-tree", "-n", "3", "--threads", value],
              expect=EXIT_INPUT)
    assert "need workers >= 1" in out.err


@pytest.mark.parametrize("argv", [
    ["df", "exact-tree", "-n", "3"],
    ["df", "mc", "--protocol", "tree", "-n", "2", "--samples", "10"],
    ["df", "brute", "--protocol", "tree", "-n", "2"],
    ["simulate", "--protocol", "tree", "-n", "2", "--trials", "5"],
    ["generate", "tree", "-n", "2"],
])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_threads_below_one_on_every_command(capsys, argv, value):
    # only the exact sweep reads --threads; every other command refuses it
    out = run(capsys, argv + ["--threads", value], expect=EXIT_INPUT)
    assert out.out == ""
    if argv[:2] == ["df", "exact-tree"]:
        assert f"--threads: need workers >= 1, got {value}" in out.err
    else:
        assert "unrecognized arguments: --threads" in out.err


@pytest.mark.parametrize("argv, golden", [
    (["df", "mc", "--protocol", "tree", "-n", "6", "--samples", "4000", "--seed", "3"],
     "df_mc_tree_n6.json"),
    (["df", "brute", "--protocol", "poulidor", "-n", "6"], "df_brute_poulidor_n6.json"),
])
def test_df_sampling_matches_golden(capsys, argv, golden):
    assert run(capsys, argv).out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv, golden", [
    (["df", "mc", "--protocol", "poulidor", "-n", "12", "--samples", "200", "--seed", "1"],
     "df_mc_poulidor_n12.json"),
    (["df", "brute", "--protocol", "poulidor", "-n", "8"], "df_brute_poulidor_n8.json"),
], ids=["mc", "brute"])
def test_df_on_rings_past_the_switch_lists_no_walks(capsys, monkeypatch, argv, golden):
    # the prefix search scores these rings and prints what the walk-list
    # gather printed; no walk is listed
    def refuse(*args):
        raise AssertionError("walks listed")

    monkeypatch.setattr(walks, "walks_from", refuse)
    assert run(capsys, argv).out == (GOLDEN / golden).read_text()


def test_df_sweep_csv(capsys):
    out = run(capsys, ["df", "exact-tree", "--sweep", "1:3", "--format", "csv"])
    lines = out.out.strip().splitlines()
    assert len(lines) == 4  # header + three rounds
    assert "success_probability.decimal" in lines[0]


def test_df_requires_rounds(capsys):
    run(capsys, ["df", "exact-tree"], expect=EXIT_INPUT)


@pytest.mark.parametrize("flag, value", [("--protocol", "poulidor"), ("--graph", "g.json")])
def test_df_exact_rejects_graph_flags(capsys, flag, value):
    for argv in (["-n", "2"], ["--sweep", "1:2"]):
        out = run(capsys, ["df", "exact-tree", flag, value, *argv], expect=EXIT_INPUT)
        assert out.out == ""
        assert f"unrecognized arguments: {flag} {value}" in out.err


@pytest.mark.parametrize("argv, flag", [
    (["df", "brute", "--protocol", "tree", "-n", "2", "--sweep", "1:4"], "--sweep"),
    (["df", "brute", "--protocol", "tree", "-n", "2", "--float"], "--float"),
    (["df", "mc", "--protocol", "tree", "-n", "2", "--force"], "--force"),
    (["df", "exact-tree", "-n", "2", "--samples", "7"], "--samples"),
    (["df", "exact-tree", "-n", "2", "--start", "3"], "--start"),
    (["df", "exact-tree", "-n", "2", "--sweep", "1:2"], "--sweep"),
    (["generate", "tree", "-n", "2", "-m", "3"], "-m"),
    (["simulate", "--graph", str(GOLDEN / "tree_n2.json"), "--protocol", "poulidor",
      "-n", "2"], "--protocol"),
    (["df", "exact-tree", "--sweep", "3:1"], "--sweep"),
    (["generate", "tree", "-n", "2", "--format", "csv"], "--format"),
    (["reduce", str(GOLDEN / "reduce_cnf_5v7c.cnf"), "--seed", "2"], "--seed"),
    (["df", "brute", "--protocol", "tree", "-n", "2", "--threads", "4"], "--threads"),
    (["generate", "tree", "-n", "2", "--max-walks", "3"], "--max-walks"),
    (["df", "mc", "--protocol", "tree", "-n", "2", "--max-exact-rounds", "1"],
     "--max-exact-rounds"),
    (["mfs", str(GOLDEN / "tree_n2.json"), "--length", "2", "--max-exact-rounds", "3"],
     "--max-exact-rounds"),
    (["simulate", "--protocol", "tree", "-n", "2", "--max-brute-vertices", "3"],
     "--max-brute-vertices"),
    (["df", "exact-tree", "-n", "2", "--float", "--force"], "--force"),
    (["generate", "tree", "--labels", "0100110", "-n", "2", "--seed", "5"], "--seed"),
    (["df", "exact-tree", "-n", "3", "--float", "--threads", "2"], "--threads"),
    (["mfs", str(GOLDEN / "tree_n2.json"), "--length", "3", "--mode", "walk"], "--mode"),
    (["df", "exact-tree", "--sweep", "3"], "--sweep: expected LO:HI, got '3'"),
    (["df", "brute", "--protocol", "tree", "-n", "2", "--max-sequences", "4"],
     "--max-sequences"),
], ids=["brute-sweep", "brute-float", "mc-force", "exact-samples", "exact-start",
        "exact-n-and-sweep", "tree-fan", "graph-and-protocol", "reversed-sweep",
        "generate-format", "reduce-seed", "brute-threads", "generate-max-walks",
        "mc-max-exact-rounds", "mfs-max-exact-rounds", "simulate-max-brute-vertices",
        "exact-force", "labels-and-seed", "float-and-threads", "mfs-mode",
        "sweep-without-colon", "brute-max-sequences"])
def test_flags_a_command_does_not_read_are_refused(capsys, argv, flag):
    out = run(capsys, argv, expect=EXIT_INPUT)
    assert out.out == ""
    assert flag in out.err.splitlines()[-1]


# each leaf command and its options, named by their first option string
LEAF_OPTIONS = {
    ("generate", "tree"): "-n --labels --seed --out",
    ("generate", "poulidor"): "-n --labels --seed --out",
    ("generate", "gentree"): "-n --labels --seed --out -m",
    ("mfs",): "--start --length --format --max-walks --max-sequences",
    ("df", "exact-tree"): "-n --sweep --float --threads --format --max-exact-rounds",
    ("df", "brute"): "--graph --protocol --start -n --format --max-walks "
                     "--max-brute-vertices",
    ("df", "mc"): "--graph --protocol --start -n --samples --seed --format --max-walks",
    ("reduce",): "--out --verify --max-walks",
    ("simulate",): "--graph --protocol --start -n --trials --adversary --key "
                   "--transcripts --seed --format --max-walks",
}


def _leaves(parser, path=()):
    subcommands = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    if not subcommands:
        yield path, parser
    for choices in subcommands:
        for name, child in choices.items():
            yield from _leaves(child, (*path, name))


def test_each_command_takes_only_the_flags_it_reads():
    options = {
        path: {a.option_strings[0] for a in leaf._actions if a.option_strings} - {"-h"}
        for path, leaf in _leaves(build_parser())
    }
    assert options == {path: set(flags.split()) for path, flags in LEAF_OPTIONS.items()}
    assert sum(map(len, options.values())) == 53


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; no value may leak between parses
    argv = ["df", "mc", "--protocol", "tree", "-n", "6", "--samples", "4000"]
    assert build_parser() is build_parser()
    seeded = run(capsys, [*argv, "--seed", "3"]).out
    unseeded = run(capsys, argv).out
    assert seeded == (GOLDEN / "df_mc_tree_n6.json").read_text()
    build_parser.cache_clear()
    assert run(capsys, argv).out == unseeded
    assert json.loads(unseeded)["seed"] == 0


@pytest.mark.parametrize("flags", [[], ["--float"]])
def test_df_sweep_past_the_limit_sweeps_nothing(capsys, monkeypatch, flags):
    calls = []

    def counting(engine):
        def call(n, **kwargs):
            calls.append(n)
            return engine(n, **kwargs)
        return call

    for name in ("expected_max_tree", "expected_max_tree_float"):
        monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
    argv = ["df", "exact-tree", "--sweep", "1:5", "--max-exact-rounds", "4", *flags]
    out = run(capsys, argv, expect=EXIT_RESOURCE)
    assert (out.out, calls) == ("", [])


def test_df_exact_refusal_exit_code(capsys):
    refusal = ("error: n = 13 exceeds max_exact_rounds = 12; "
               "raise it with --max-exact-rounds or MFSKIT_MAX_EXACT_ROUNDS\n")
    for flags in ([], ["--float"]):
        out = run(capsys, ["df", "exact-tree", "-n", "13", *flags], expect=EXIT_RESOURCE)
        assert (out.out, out.err) == ("", refusal)


class _BrokenPool:
    """A worker pool whose workers have all died."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        raise BrokenProcessPool("a worker process terminated abruptly")


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("argv, patch, err", [
    (["df", "exact-tree", "-n", "3", "--threads", "2"],
     (fraud, "ProcessPoolExecutor", _BrokenPool),
     "error: worker process failed: a worker process terminated abruptly\n"),
    (["simulate", "--protocol", "tree", "-n", "25", "--trials", "1"],
     (cli, "make_tree", _out_of_memory), "error: out of memory\n"),
], ids=["broken-pool", "out-of-memory"])
def test_resource_failures_exit_code(capsys, monkeypatch, argv, patch, err):
    monkeypatch.setattr(*patch)
    out = run(capsys, argv, expect=EXIT_RESOURCE)
    assert (out.out, out.err) == ("", err)


@pytest.mark.skipif(fraud.resource is None, reason="no address-space limit to read")
def test_df_sweep_refuses_its_largest_table_first(capsys, monkeypatch):
    monkeypatch.setattr(fraud.resource, "getrlimit", lambda which: (1 << 20, 1 << 20))
    monkeypatch.setattr(fraud, "_binom_rows", _out_of_memory)  # nothing is built
    for flags in ([], ["--threads", "2"]):
        argv = ["df", "exact-tree", "--sweep", "3:9", *flags]
        out = run(capsys, argv, expect=EXIT_RESOURCE)
        assert out.out == ""
        assert out.err == ("error: n = 9 needs about 4 MiB for its binomial table, "
                           "above the address-space limit of 1 MiB\n")
    # float mode builds no such table and is not checked
    out = run(capsys, ["df", "exact-tree", "--sweep", "9:9", "--float"])
    assert json.loads(out.out)[0]["rounds"] == 9


@pytest.mark.skipif(fraud.resource is None, reason="no address-space limit to set")
def test_df_exact_table_refusal_under_an_address_space_cap():
    # as `ulimit -v 400000` would run it: one line and exit 3, before the build
    resource = fraud.resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (400_000 * 1024,) * 2)

    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "mfskit.cli", "df", "exact-tree", "-n", "12"],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_RESOURCE, "")
    assert proc.stderr == ("error: n = 12 needs about 1591 MiB for its binomial "
                           "table, above the address-space limit of 390 MiB\n")


def test_df_float_round_limit_override(capsys):
    # float mode past the limit takes exact mode's override, the limit itself
    argv = ["df", "exact-tree", "-n", "4", "--float", "--max-exact-rounds"]
    out = run(capsys, argv + ["3"], expect=EXIT_RESOURCE)
    assert out.out == "" and "max_exact_rounds = 3" in out.err
    report = json.loads(run(capsys, argv + ["4"]).out)
    assert abs(report["success_probability"] - 0.2728901654) < 1e-9


@pytest.mark.parametrize("flags", [[], ["--float", "--max-exact-rounds", "4"]])
def test_df_sweep_entries_match_single_rounds(capsys, flags):
    sweep = json.loads(run(capsys, ["df", "exact-tree", "--sweep", "1:4", *flags]).out)
    singles = [
        json.loads(run(capsys, ["df", "exact-tree", "-n", str(n), *flags]).out)
        for n in range(1, 5)
    ]
    assert sweep == singles


def test_mfs_resource_refusal(capsys, tmp_path):
    graph = tmp_path / "g.json"
    run(capsys, ["generate", "tree", "-n", "3", "--out", str(graph)])
    run(capsys, ["mfs", str(graph), "--length", "4", "--max-walks", "4"],
        expect=EXIT_RESOURCE)


@pytest.mark.parametrize("method", ["brute", "mc"])
def test_df_walk_refusal_names_the_count(capsys, method):
    out = run(capsys, ["df", method, "--protocol", "tree", "-n", "3",
                       "--max-walks", "4"], expect=EXIT_RESOURCE)
    assert out.err == "error: 8 walks of 4 vertices exceed the limit 4\n"


def test_limit_flags_must_be_positive(capsys, tmp_path):
    graph = tmp_path / "g.json"
    run(capsys, ["generate", "tree", "-n", "3", "--out", str(graph)])
    mfs = ["mfs", str(graph), "--length", "4"]
    for flag, argv in [
        ("--max-walks", mfs),
        ("--max-sequences", mfs),
        ("--max-exact-rounds", ["df", "exact-tree", "-n", "2"]),
        ("--max-brute-vertices", ["df", "brute", "--protocol", "tree", "-n", "2"]),
    ]:
        for value in ("0", "-1"):
            out = run(capsys, [*argv, flag, value], expect=EXIT_INPUT)
            assert out.out == ""
            assert f"{flag} must be a positive integer, got {value}" in out.err


def test_bad_graph_file_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = run(capsys, ["mfs", str(bad), "--length", "2"], expect=EXIT_INPUT)
    assert "error" in out.err


def test_reduce_verify_example(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(EXAMPLE_CNF)
    graph_file = tmp_path / "red.json"
    out = run(capsys, ["reduce", str(cnf), "--out", str(graph_file), "--verify"])
    summary = json.loads(out.err)
    assert summary["equivalence_ok"] and summary["walk_lengths_ok"]
    assert summary["mfs_count"] == 3 and summary["satisfiable"]
    data = json.loads(graph_file.read_text())
    assert data["roles"]["0"] == "root"
    assert data["params"]["target_length"] == 6


def test_reduce_verify_refuses_past_the_sat_oracle_cap(capsys, tmp_path, monkeypatch):
    from mfskit import reduction

    solves = []
    monkeypatch.setattr(reduction, "most_frequent_sequence",
                        lambda *a, **kw: solves.append(a))
    cnf = tmp_path / "v25.cnf"
    cnf.write_text("p cnf 25 1\n1 2 3 0\n")
    out = run(capsys, ["reduce", str(cnf), "--verify"], expect=EXIT_RESOURCE)
    assert out.err == "error: 25 variables exceed the exhaustive-search cap 24\n"
    assert solves == []


def test_refused_reduce_verify_writes_nothing(capsys, tmp_path):
    # the checks run before the gadget is written: no file and no stdout
    cnf = tmp_path / "v25.cnf"
    cnf.write_text("p cnf 25 1\n1 2 3 0\n")
    refusal = "error: 25 variables exceed the exhaustive-search cap 24\n"
    gadget = tmp_path / "g.json"
    out = run(capsys, ["reduce", str(cnf), "--verify", "--out", str(gadget)],
              expect=EXIT_RESOURCE)
    assert (out.out, out.err) == ("", refusal)
    assert not gadget.exists()
    out = run(capsys, ["reduce", str(cnf), "--verify"], expect=EXIT_RESOURCE)
    assert (out.out, out.err) == ("", refusal)
    # without --verify nothing is refused and the gadget is written
    run(capsys, ["reduce", str(cnf), "--out", str(gadget)])
    assert gadget.exists()


def test_reduce_unsat_consistent(capsys, tmp_path):
    cnf = tmp_path / "u.cnf"
    cnf.write_text("p cnf 2 2\n1 0\n-1 0\n")
    out = run(capsys, ["reduce", str(cnf), "--verify"])
    summary = json.loads(out.err.split("\n{", 1)[0] if out.err.startswith("{")
                         else "{" + out.err.split("{", 1)[1])
    assert summary["satisfiable"] is False
    assert summary["mfs_count"] < summary["clause_count"]
    assert summary["equivalence_ok"]


def test_reduce_rejects_tautology(capsys, tmp_path):
    cnf = tmp_path / "t.cnf"
    cnf.write_text("p cnf 2 1\n1 -1 0\n")
    out = run(capsys, ["reduce", str(cnf)], expect=EXIT_INPUT)
    assert "tautology" in out.err


def test_reduce_verification_failure_exit_code(capsys, tmp_path, monkeypatch):
    def fake_verify(formula, limits, reduction):
        return ReductionVerdict(
            ok=False, clause_count=3, mfs_count=1, mfs_sequence=(),
            satisfiable=True, assignment=None, detail="forced failure",
        )

    monkeypatch.setattr(cli, "verify_reduction", fake_verify)
    cnf = tmp_path / "f.cnf"
    cnf.write_text(EXAMPLE_CNF)
    run(capsys, ["reduce", str(cnf), "--verify"], expect=EXIT_VERIFY)


def test_reduce_verify_builds_the_gadget_once(capsys, tmp_path, monkeypatch):
    import mfskit.reduction as reduction

    built, build = [], reduction.reduce_sat_to_mfs

    def counting(formula):
        built.append(formula)
        return build(formula)

    monkeypatch.setattr(cli, "reduce_sat_to_mfs", counting)
    monkeypatch.setattr(reduction, "reduce_sat_to_mfs", counting)
    cnf = tmp_path / "f.cnf"
    cnf.write_text(EXAMPLE_CNF)
    run(capsys, ["reduce", str(cnf), "--out", str(tmp_path / "g.json"), "--verify"])
    assert len(built) == 1


def test_reduce_matches_golden(capsys, tmp_path):
    out = tmp_path / "g.json"
    err = run(capsys, ["reduce", str(GOLDEN / "reduce_cnf_5v7c.cnf"),
                       "--out", str(out), "--verify"]).err
    assert out.read_bytes() == (GOLDEN / "reduce_cnf_5v7c.json").read_bytes()
    assert err == (GOLDEN / "reduce_cnf_5v7c_verify.json").read_text()


def test_simulate_honest(capsys):
    report = json.loads(
        run(capsys, ["simulate", "--protocol", "poulidor", "-n", "3",
                     "--trials", "100"]).out
    )
    assert report["rate"] == 1.0


def test_simulate_matches_golden(capsys):
    argv = ["-n", "2", "--trials", "500", "--adversary", "early-reply", "--seed", "9"]
    out = run(capsys, ["simulate", "--protocol", "tree", *argv])
    assert out.out == (GOLDEN / "simulate_tree_n2.json").read_text()
    # the same tree read from its file passes the binary-instance check
    out = run(capsys, ["simulate", "--graph", str(GOLDEN / "tree_n2.json"), *argv])
    assert out.out == (GOLDEN / "simulate_tree_n2.json").read_text()


def _ab_tree():
    tree = read_graph(GOLDEN / "tree_n2.json")
    labels = tuple({"0": "a", "1": "b"}[lab] for lab in tree.labels)
    return LabeledDigraph(("a", "b"), labels, tree.out_edges)


@pytest.mark.parametrize("command", [["simulate"], ["df", "brute"], ["df", "mc"]],
                         ids=["simulate", "df-brute", "df-mc"])
@pytest.mark.parametrize("graph, err", [
    (_ab_tree, "alphabet ['a', 'b'] is not ['0', '1']"),
    # more walks than 2^n: M could exceed 2^n, so the file is refused up front
    (lambda: LabeledDigraph(("0", "1"), ("0",) * 3, ((0, 1, 2),) * 3),
     "; ".join(f"vertex {v} has out-degree 3 > 2" for v in range(3))),
], ids=["alphabet", "out-degree"])
def test_graph_must_be_binary(capsys, tmp_path, command, graph, err):
    path = tmp_path / "g.json"
    write_graph(graph(), path)
    out = run(capsys, [*command, "--graph", str(path), "-n", "2"], expect=EXIT_INPUT)
    assert (out.out, out.err) == ("", f"error: {err}\n")


def test_max_sequences_cannot_bind_on_binary_instances(capsys, monkeypatch):
    # at most 2^(k-1) walks of k vertices against 2^k candidate sequences:
    # the smallest sequence limit changes no output of these commands
    monkeypatch.setenv("MFSKIT_MAX_SEQUENCES", "1")
    simulate = ["simulate", "--adversary", "early-reply", "--trials"]
    for argv, golden in [
        (["df", "brute", "--protocol", "poulidor", "-n", "6"], "df_brute_poulidor_n6.json"),
        (["df", "mc", "--protocol", "tree", "-n", "6", "--samples", "4000", "--seed", "3"],
         "df_mc_tree_n6.json"),
        (["df", "mc", "--protocol", "poulidor", "-n", "12", "--samples", "200",
          "--seed", "1"], "df_mc_poulidor_n12.json"),
        ([*simulate, "500", "--protocol", "tree", "-n", "2", "--seed", "9"],
         "simulate_tree_n2.json"),
        ([*simulate, "300", "--protocol", "poulidor", "-n", "6", "--seed", "3"],
         "simulate_poulidor_n6.json"),
    ]:
        assert run(capsys, argv).out == (GOLDEN / golden).read_text()
    out = run(capsys, ["reduce", str(GOLDEN / "reduce_cnf_5v7c.cnf"), "--verify"])
    assert out.out == (GOLDEN / "reduce_cnf_5v7c.json").read_text()
    assert out.err == (GOLDEN / "reduce_cnf_5v7c_verify.json").read_text()


@pytest.mark.parametrize("argv, code, err", [
    (["--protocol", "tree", "-n", "4", "--trials", "50", "--max-walks", "4"],
     EXIT_RESOURCE, "16 walks of 5 vertices exceed the limit 4"),
    # the reduction gadget dead-ends after 11 sessions
    (["--graph", str(GOLDEN / "reduce_cnf_5v7c.json"), "-n", "8"], EXIT_INPUT,
     "no out-edge labeled '1' at vertex 68; the configured graph dead-ends "
     "before the last round"),
], ids=["walk-limit", "dead-end"])
def test_refused_simulate_writes_no_transcripts(capsys, tmp_path, argv, code, err):
    path = tmp_path / "t.jsonl"
    argv = ["simulate", *argv, "--adversary", "early-reply", "--transcripts", str(path)]
    out = run(capsys, argv, expect=code)
    assert (out.out, out.err) == ("", f"error: {err}\n")
    assert list(tmp_path.iterdir()) == []
    # a file already at the path stays as it was, and no temporary is left
    path.write_text("kept\n")
    run(capsys, argv, expect=code)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "kept\n"


def test_simulate_transcripts_to_a_pipe(capsys, tmp_path):
    # a pipe cannot be replaced by a finished file: it is written directly
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
    reader.start()
    argv = ["simulate", "--protocol", "tree", "-n", "6", "--trials", "20",
            "--adversary", "early-reply", "--seed", "5"]
    run(capsys, argv + ["--transcripts", str(pipe)])
    reader.join(timeout=30)
    assert got == [(GOLDEN / "simulate_tree_n6_transcripts.jsonl").read_text()]
    assert list(tmp_path.iterdir()) == [pipe]


def test_simulate_multi_block_transcripts_match_golden(capsys, tmp_path):
    # tree n=6 draws 190 stream bits per session: three splitmix64 blocks
    path = tmp_path / "sessions.jsonl"
    run(capsys, ["simulate", "--protocol", "tree", "-n", "6", "--trials", "20",
                 "--adversary", "early-reply", "--seed", "5",
                 "--transcripts", str(path)])
    golden = GOLDEN / "simulate_tree_n6_transcripts.jsonl"
    assert path.read_bytes() == golden.read_bytes()


def test_simulate_ring_transcripts_match_golden(capsys, tmp_path):
    # the ring is not a tree: walks merge, so its sessions are not tree-only
    path = tmp_path / "sessions.jsonl"
    out = run(capsys, ["simulate", "--protocol", "poulidor", "-n", "6",
                       "--trials", "300", "--adversary", "early-reply",
                       "--seed", "3", "--transcripts", str(path)])
    assert out.out == (GOLDEN / "simulate_poulidor_n6.json").read_text()
    golden = GOLDEN / "simulate_poulidor_n6_transcripts.jsonl"
    assert path.read_bytes() == golden.read_bytes()


def test_simulate_ring_greedy_matches_golden(capsys, tmp_path):
    # pins the greedy replies, step by step, on a graph whose walks merge
    path = tmp_path / "sessions.jsonl"
    out = run(capsys, ["simulate", "--protocol", "poulidor", "-n", "6",
                       "--trials", "300", "--adversary", "greedy-early-reply",
                       "--seed", "3", "--transcripts", str(path)])
    assert out.out == (GOLDEN / "simulate_poulidor_n6_greedy.json").read_text()
    golden = GOLDEN / "simulate_poulidor_n6_greedy_transcripts.jsonl"
    assert path.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("key", ["zz", "0", "abc", "", " "])
def test_simulate_rejects_bad_key(capsys, key):
    out = run(capsys, ["simulate", "--protocol", "tree", "-n", "2",
                       "--trials", "5", "--key", key], expect=EXIT_INPUT)
    assert out.err == f"error: --key: need at least one byte as hex, got {key!r}\n"


def test_simulate_key_changes_the_sessions(capsys):
    argv = ["simulate", "--protocol", "tree", "-n", "4", "--trials", "300",
            "--adversary", "early-reply", "--seed", "2"]
    default = run(capsys, argv).out
    assert run(capsys, argv + ["--key", "7368617265642d736563726574"]).out == default
    assert run(capsys, argv + ["--key", "00ff"]).out != default


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_simulate_trials_below_one(capsys, trials):
    out = run(capsys, ["simulate", "--protocol", "tree", "-n", "2",
                       "--trials", trials], expect=EXIT_INPUT)
    assert "need at least one trial" in out.err


def test_simulate_transcript_export(capsys, tmp_path):
    path = tmp_path / "sessions.jsonl"
    run(capsys, ["simulate", "--protocol", "tree", "-n", "2", "--trials", "5",
                 "--transcripts", str(path)])
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        record = json.loads(line)
        assert record["accepted"] is True  # honest default
    # an early-reply report counts the accepted transcripts it wrote and
    # equals the report printed without --transcripts
    argv = ["simulate", "--protocol", "tree", "-n", "3", "--trials", "200",
            "--adversary", "early-reply", "--seed", "4"]
    with_file = run(capsys, argv + ["--transcripts", str(path)]).out
    lines = path.read_text().splitlines()
    assert len(lines) == 200
    accepted = sum(json.loads(line)["accepted"] for line in lines)
    assert 0 < accepted < 200
    assert json.loads(with_file)["accepted"] == accepted
    assert with_file == run(capsys, argv).out


def test_simulate_needs_a_graph(capsys):
    run(capsys, ["simulate", "-n", "3"], expect=EXIT_INPUT)


def test_text_format(capsys):
    out = run(capsys, ["df", "exact-tree", "-n", "1", "--format", "text"])
    assert "success_probability" in out.out and "{" not in out.out
    # a sweep renders its list as one report after the other
    sweep = run(capsys, ["df", "exact-tree", "--sweep", "1:2", "--format", "text"]).out
    assert sweep.startswith(out.out)
    assert sweep.count("method: exact-dp\n") == 2 and "[" not in sweep


def _strict_json(text: str):
    """json.loads that refuses NaN and the infinities, which RFC 8259
    JSON does not have."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["df", "exact-tree", "-n", "3"],
        ["df", "exact-tree", "--sweep", "1:3"],
        ["df", "exact-tree", "-n", "3", "--float"],
        ["df", "brute", "--protocol", "tree", "-n", "3"],
        ["df", "brute", "--protocol", "poulidor", "-n", "3"],
        ["df", "mc", "--protocol", "tree", "-n", "3", "--samples", "1"],
        ["df", "mc", "--protocol", "tree", "-n", "3", "--samples", "2"],
        ["df", "mc", "--protocol", "poulidor", "-n", "4", "--samples", "50"],
        ["simulate", "--protocol", "tree", "-n", "2", "--trials", "1"],
        ["simulate", "--protocol", "tree", "-n", "3", "--trials", "40",
         "--adversary", "early-reply"],
        ["simulate", "--protocol", "poulidor", "-n", "4", "--trials", "40",
         "--adversary", "greedy-early-reply"],
    ],
)
def test_df_and_simulate_print_strict_json(capsys, tmp_path, argv):
    if argv[0] == "simulate":
        path = tmp_path / "t.jsonl"
        _strict_json(run(capsys, argv + ["--transcripts", str(path)]).out)
        for line in path.read_text().splitlines():
            _strict_json(line)
    _strict_json(run(capsys, argv).out)


def test_df_mc_single_sample_has_no_std_error(capsys):
    out = run(capsys, ["df", "mc", "--protocol", "tree", "-n", "3", "--samples", "1"])
    assert _strict_json(out.out)["std_error"] is None
