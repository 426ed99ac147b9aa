"""Command-line front end.

Subcommands: generate, mfs, df, reduce, simulate.  Output is JSON by
default (text and csv renderings where they make sense); every command is
deterministic given its flags and --seed.

Exit codes: 0 success, 2 invalid input, 3 resource-limit refusal, out
of memory or a failed worker process, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from dataclasses import fields, replace

from . import __version__
from .errors import Limits, MfskitError, ResourceLimitError
from .fraud import (
    brute_force_expected_max,
    distance_fraud_probability,
    expected_max_tree,  # noqa: F401  bench/run.py traces it under this name
    expected_max_tree_range,
    monte_carlo_expected_max,
)
from .generators import make_generalized_tree, make_poulidor, make_tree
from .graphs import (
    graph_json_text,
    graph_to_dict,  # noqa: F401  bench/run.py traces it under this name
    read_graph,
    validate_binary_instance,
)
from .cnf import parse_dimacs
from .protocol import (
    ADVERSARY_KINDS,
    AdversaryStrategy,
    ProtocolConfig,
    RateReport,
    estimate_success_rate,
    run_session,
)
from .reduction import check_maximal_walks, reduce_sat_to_mfs, verify_reduction
from .walks import most_frequent_sequence

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4

LIMIT_FIELDS = tuple(f.name for f in fields(Limits))


def _limits_from_args(args) -> Limits:
    overrides = {name: getattr(args, name) for name in LIMIT_FIELDS
                 if getattr(args, name, None) is not None}
    for name, value in overrides.items():
        if value <= 0:
            raise MfskitError(
                f"--{name.replace('_', '-')} must be a positive integer, got {value}"
            )
    return replace(Limits.from_env(), **overrides)


def _emit(args, payload: dict | list) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        import csv
        rows = payload if isinstance(payload, list) else [payload]
        flat = [_flatten(row) for row in rows]
        fieldnames: list[str] = []
        for row in flat:
            for key in row:
                if key not in fieldnames:
                    fieldnames.append(key)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(flat)
        sys.stdout.write(buf.getvalue())
    else:  # text
        print(_as_text(payload))


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def _as_text(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_as_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(payload, list):
        return "\n".join(_as_text(item, indent) for item in payload)
    return f"{pad}{payload}"


def _write_or_print(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


@contextlib.contextmanager
def _written_on_success(path: str):
    """A text file that becomes `path` only if the block completes: it is
    written beside `path` and removed on failure, so a refused run leaves
    no file and a file already at `path` untouched.  A path that exists
    but is no regular file, such as /dev/stdout or a pipe, is written
    directly: it cannot be replaced."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _parse_labels(raw: str) -> tuple[str, ...]:
    if "," in raw:
        return tuple(part.strip() for part in raw.split(","))
    return tuple(raw.strip())


# -- subcommands ----------------------------------------------------------------


def _cmd_generate(args) -> int:
    labels = None if args.labels is None else _parse_labels(args.labels)
    graph = args.make(args, labeling=labels, seed=args.seed)
    _write_or_print(args, graph_json_text(graph))
    return EXIT_OK


def _cmd_mfs(args) -> int:
    limits = _limits_from_args(args)
    g = read_graph(args.graph)
    result = most_frequent_sequence(g, args.start, args.length, limits=limits)
    _emit(
        args,
        {
            "sequence": result.sequence_str,
            "count": result.count,
            "tie_count": result.tie_count,
            "length": args.length,
            "start": args.start,
        },
    )
    return EXIT_OK


def _df_report(n: int, result, approx: bool) -> dict:
    if approx:  # float mode's (expectation, cdf)
        e = result[0]
        return {
            "method": "exact-dp-float",
            "rounds": n,
            "expected_max": e,
            "success_probability": e / (1 << n),
        }
    return distance_fraud_probability(result.expected_max, n, "exact-dp").to_json_dict()


def _cmd_df_exact(args) -> int:
    if args.threads < 1:
        raise MfskitError(f"--threads: need workers >= 1, got {args.threads}")
    limits = _limits_from_args(args)
    lo, hi = args.sweep or (args.rounds, args.rounds)
    results = expected_max_tree_range(lo, hi, limits=limits, workers=args.threads,
                                      exact=not args.float)
    payload = [_df_report(n, r, args.float) for n, r in zip(range(lo, hi + 1), results)]
    _emit(args, payload if args.sweep else payload[0])
    return EXIT_OK


def _cmd_df_brute(args) -> int:
    limits = _limits_from_args(args)
    expected = brute_force_expected_max(
        _df_graph(args), args.start, args.rounds, limits=limits
    )
    report = distance_fraud_probability(expected, args.rounds, "brute-force")
    _emit(args, report.to_json_dict())
    return EXIT_OK


def _cmd_df_mc(args) -> int:
    limits = _limits_from_args(args)
    report = monte_carlo_expected_max(
        _df_graph(args), args.start, args.rounds, args.samples, args.seed, limits=limits
    )
    _emit(args, report.to_json_dict())
    return EXIT_OK


def _df_graph(args):
    """The graph of df brute, df mc and simulate; a file must be binary."""
    if args.graph is not None:
        graph = read_graph(args.graph)
        check = validate_binary_instance(graph)
        if not check.ok:
            raise MfskitError("; ".join(check.violations))
        return graph
    make = make_tree if args.protocol == "tree" else make_poulidor
    return make(args.rounds)


def _cmd_reduce(args) -> int:
    if args.max_walks is not None and not args.verify:
        raise MfskitError("--max-walks is read only with --verify")
    limits = _limits_from_args(args)
    with open(args.cnf, "r", encoding="utf-8") as fh:
        formula = parse_dimacs(fh.read())
    r = reduce_sat_to_mfs(formula)
    roles = {str(v): role for v, role in enumerate(r.roles)}
    params = {
        "variables": r.params.variable_count,
        "clauses": r.params.clause_count,
        "tree_depth": r.params.tree_depth,
        "target_length": r.params.target_length,
    }
    if args.verify:  # before any output, so a refused check leaves none
        verdict = verify_reduction(formula, limits=limits, reduction=r)
        walks = check_maximal_walks(r)
    _write_or_print(args, graph_json_text(r.graph, {"roles": roles, "params": params}))
    if args.verify:
        summary = {
            "equivalence_ok": verdict.ok,
            "walk_lengths_ok": walks.ok,
            "mfs_count": verdict.mfs_count,
            "clause_count": verdict.clause_count,
            "satisfiable": verdict.satisfiable,
            "detail": verdict.detail,
        }
        print(json.dumps(summary, indent=2), file=sys.stderr)
        if not (verdict.ok and walks.ok):
            return EXIT_VERIFY
    return EXIT_OK


def _key_from_args(raw: str | None) -> bytes:
    if raw is None:
        return b"shared-secret"
    try:
        key = bytes.fromhex(raw)
    except ValueError:
        key = b""  # rejected below with the same message
    if not key:
        raise MfskitError(f"--key: need at least one byte as hex, got {raw!r}")
    return key


def _cmd_simulate(args) -> int:
    limits = _limits_from_args(args)
    config = ProtocolConfig(
        graph=_df_graph(args),
        start=args.start,
        rounds=args.rounds,
        key=_key_from_args(args.key),
        trials=args.trials,
        seed=args.seed,
    )
    strategy = AdversaryStrategy(args.adversary)
    if args.transcripts:
        # each trial is played once: its transcript also carries the decision
        accepted = 0
        with _written_on_success(args.transcripts) as fh:
            for t in range(config.trials):
                transcript = run_session(config, strategy, trial_index=t, limits=limits)
                accepted += transcript.accepted
                fh.write(json.dumps(transcript.to_json_dict()) + "\n")
        report = RateReport.from_count(config, strategy, accepted)
    else:
        report = estimate_success_rate(config, strategy, limits=limits)
    _emit(args, report.to_json_dict())
    return EXIT_OK


# -- argument parsing -------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once; a leaf lists the parents of the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="mfskit",
        description="Distance-fraud analysis for graph-based distance bounding",
    )
    parser.add_argument("--version", action="version", version=__version__)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv", "text"), default="json")
    seeding = dict(type=int, default=0, help="PRNG seed (default 0)")  # also generate's
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", **seeding)
    limit = {name: argparse.ArgumentParser(add_help=False) for name in LIMIT_FIELDS}
    for name, holder in limit.items():
        holder.add_argument(f"--{name.replace('_', '-')}", type=int, default=None,
                            help=f"override the {name} limit")
    # the graph that df brute, df mc and simulate run on, and what all three
    # read; its at most 2^(k-1) walks of k vertices never outnumber the 2^k
    # candidate sequences, so max_sequences cannot bind
    on_graph = argparse.ArgumentParser(
        add_help=False, parents=[fmt, limit["max_walks"]])
    source = on_graph.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="graph JSON file")
    source.add_argument("--protocol", choices=("tree", "poulidor"))
    on_graph.add_argument("--start", type=int, default=0)
    on_graph.add_argument("-n", "--rounds", type=int, required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = argparse.ArgumentParser(add_help=False)
    gen.add_argument("-n", "--rounds", type=int, required=True)
    labeling = gen.add_mutually_exclusive_group()
    labeling.add_argument("--labels", default=None,
                          help="explicit labels, e.g. 010... or comma-separated")
    labeling.add_argument("--seed", **seeding)
    gen.add_argument("--out", default=None, help="output file (default stdout)")
    p = sub.add_parser("generate", help="emit a protocol graph")
    p.set_defaults(func=_cmd_generate)
    kinds = p.add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("tree", parents=[gen], help="full binary tree")
    p.set_defaults(make=lambda a, **kw: make_tree(a.rounds, **kw))
    p = kinds.add_parser("poulidor", parents=[gen], help="Poulidor ring")
    p.set_defaults(make=lambda a, **kw: make_poulidor(a.rounds, **kw))
    p = kinds.add_parser("gentree", parents=[gen], help="generalized tree")
    p.add_argument("-m", "--fan", type=int, required=True,
                   help="the root has 2*fan children")
    p.set_defaults(make=lambda a, **kw: make_generalized_tree(a.fan, a.rounds, **kw))

    p = sub.add_parser("mfs", parents=[fmt, limit["max_walks"], limit["max_sequences"]],
                       help="most frequent sequence")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(func=_cmd_mfs)

    methods = sub.add_parser("df", help="distance-fraud probability").add_subparsers(
        dest="method", required=True)
    p = methods.add_parser("exact-tree", parents=[fmt, limit["max_exact_rounds"]],
                           help="exact recursion on the full binary tree")
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("-n", "--rounds", type=int)
    size.add_argument("--sweep", type=_parse_range, metavar="LO:HI",
                      help="report a whole range of rounds")
    arithmetic = p.add_mutually_exclusive_group()
    arithmetic.add_argument("--float", action="store_true", help="floating-point mode")
    arithmetic.add_argument("--threads", type=int, default=1, help="worker processes")
    p.set_defaults(func=_cmd_df_exact)
    p = methods.add_parser("brute", parents=[on_graph, limit["max_brute_vertices"]],
                           help="every labeling of the graph")
    p.set_defaults(func=_cmd_df_brute)
    p = methods.add_parser("mc", parents=[on_graph, seed],
                           help="Monte Carlo over random labelings")
    p.add_argument("--samples", type=int, default=100000)
    p.set_defaults(func=_cmd_df_mc)

    p = sub.add_parser("reduce", parents=[limit["max_walks"]],
                       help="SAT to frequency-gadget reduction")
    p.add_argument("cnf", help="DIMACS CNF file")
    p.add_argument("--out", default=None, help="output graph file")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against exhaustive satisfiability")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("simulate", parents=[on_graph, seed],
                       help="run protocol sessions")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--adversary", choices=ADVERSARY_KINDS, default="honest")
    p.add_argument("--key", default=None, help="shared key as hex")
    p.add_argument("--transcripts", default=None,
                   help="write one JSON transcript per line to this file")
    p.set_defaults(func=_cmd_simulate)
    return parser


def _parse_range(raw: str) -> tuple[int, int]:
    lo, _, hi = raw.partition(":")
    try:
        pair = (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {raw!r}") from None
    if pair[0] < 1 or pair[1] < pair[0]:
        raise argparse.ArgumentTypeError(f"bad range {raw!r}")
    return pair


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: --help, --version or bad arguments
        return exc.code
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except (MfskitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
