"""Challenge-response protocol execution and fraud-strategy simulation.

Each session: both sides exchange nonces, derive the session labeling of
the shared graph from a keyed pseudorandom bit stream, then run n timed
rounds where a challenge bit steers one step of a walk and the response is
the label of the vertex reached.  The verifier accepts when every response
matches its own walk.  The round timing check is not modelled: every
prover here passes it, the early replier because it answers before the
challenge arrives, so each round records `timing_ok` as true.

The pseudorandom function is NOT a cryptographic primitive here, only a
fixed, documented bit stream so that runs are reproducible: the seed is
the 8-byte BLAKE2b digest (``digest_size=8``, read big endian) of
``len(key) || key || len(N_V) || N_V || len(N_P) || N_P`` (lengths as
4-byte big-endian prefixes), and bits come from the splitmix64 sequence of
that seed, each 64-bit block consumed least-significant bit first.  Bit
assignment order: one label bit per vertex in ascending id order (bit b
gives the label str(b)), then for each vertex with two out-edges in
ascending id order, one bit deciding which out-edge is labeled "0" (a 1
labels the second one "0").  A single out-edge is labeled "0".  The
labeler reads this prefix of the stream in one draw of 2n bits for n
vertices, which covers the n label bits and at most n edge bits.
`blake2b` comes from CPython's built-in `_blake2`, as `hashlib.blake2b`
does, so no session loads OpenSSL's `_hashlib`.

Trial `index` of a config's `seed` reads one more such stream, from state
``(seed ^ index * 0xD1342543DE82EF95) mod 2^64``: bits 0-63 and 64-127 are
the verifier and prover nonces (8 big-endian bytes each), bit 128 + i is
round i's challenge.

One session core (`_play`) derives each trial's nonces, labeling,
challenges, expected labels and responses.  `run_session` records its
transcript and the rate estimator reads only its decision, so both agree
on every trial and raise the same errors; a transcript export plays each
trial once.

The honest prover answers with the verifier's own walk; every other
reply, early or greedy, is chosen in one place, `_replies_for`.
The labeler hook relabels the structure it is given, `config.graph`.
Early replies come from the config's scorer, the one per-structure scorer
of `walks` (`MfsScorer`) that `df brute` and `df mc` use too: a split of
the walks by the labeling's bit planes, or one prefix search where walks
are many against their frontier states, or where a labeler hook changes
the out-edges or the symbols or uses more than two symbols.  Every path
makes the solver's one refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import Callable, Sequence

try:
    from _blake2 import blake2b
except ImportError:  # a Python without CPython's built-in BLAKE2
    from hashlib import blake2b

from .errors import DEFAULT_LIMITS, GraphError, Limits, ProtocolError
from .graphs import LabeledDigraph
from .walks import MfsScorer, frontier_step
from .walks import most_frequent_sequence  # noqa: F401  bench/run.py traces it here

_MASK64 = (1 << 64) - 1


def _prf_word(seed: int, k: int) -> int:
    """The first k bits of the splitmix64 stream of `seed` as one integer,
    stream bit i at bit i."""
    state = seed & _MASK64
    word = 0
    for shift in range(0, k, 64):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        word |= (z ^ (z >> 31)) << shift
    return word & ((1 << k) - 1)


def prf_seed(key: bytes, verifier_nonce: bytes, prover_nonce: bytes) -> int:
    h = blake2b(digest_size=8)
    for part in (key, verifier_nonce, prover_nonce):
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return int.from_bytes(h.digest(), "big")


def label_graph_from_prf(
    structure: LabeledDigraph,
    key: bytes,
    verifier_nonce: bytes,
    prover_nonce: bytes,
) -> LabeledDigraph:
    """Session labeling: one uniform bit per vertex label, one bit per
    degree-2 vertex choosing its "0" out-edge.  Deterministic in
    (key, nonces); single out-edges are labeled "0"."""
    branching, first_edge_labels, wide = structure.branch_layout
    if wide is not None:
        raise ProtocolError(
            f"vertex {wide} has out-degree {structure.out_degree(wide)}; "
            "protocol graphs need <= 2"
        )
    n = structure.vertex_count
    # one draw covers the n label bits and at most n edge bits
    word = _prf_word(prf_seed(key, verifier_nonce, prover_nonce), 2 * n)
    # the sentinel bit 2n keeps leading zeros; reversed, stream bit i is bits[i]
    bits = format(word | (1 << 2 * n), "b")[:0:-1]
    edge_labels = list(first_edge_labels)
    for v, b in zip(branching, bits[n:]):
        if b == "1":
            edge_labels[v] = ("1", "0")
    return LabeledDigraph._unchecked(
        ("0", "1"),
        tuple(bits[:n]),
        structure.out_edges,
        tuple(edge_labels),
        structure.names,
    )


# the prover behaviors, as `simulate --adversary` names them
ADVERSARY_KINDS = ("honest", "early-reply", "greedy-early-reply")


@dataclass(frozen=True)
class AdversaryStrategy:
    """Prover behavior: "honest" walks and answers truthfully;
    "early-reply" commits to replies before seeing any challenge, the
    most-frequent-sequence suffix recomputed per session;
    "greedy-early-reply" is an experimental heuristic that picks each
    reply by the largest walk mass one step ahead.  Fixed replies on a
    fixed labeling are scored by `exhaustive_challenge_success`."""

    kind: str

    def __post_init__(self):
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")


def honest() -> AdversaryStrategy:
    return AdversaryStrategy("honest")


def early_reply() -> AdversaryStrategy:
    return AdversaryStrategy("early-reply")


def greedy_early_reply() -> AdversaryStrategy:
    return AdversaryStrategy("greedy-early-reply")


@dataclass(frozen=True)
class ProtocolConfig:
    graph: LabeledDigraph
    start: int
    rounds: int
    key: bytes = b"shared-secret"
    trials: int = 1
    seed: int = 0
    # session-labeling hook, replaceable by any function with the same
    # signature (structure, key, verifier_nonce, prover_nonce) -> graph
    labeler: Callable[..., LabeledDigraph] = label_graph_from_prf

    def __post_init__(self):
        self.graph.check_vertex(self.start)
        if self.rounds < 1:
            raise ValueError("need at least one round")
        if self.trials < 1:
            raise ValueError("need at least one trial")

    @cached_property
    def scorer(self) -> MfsScorer:
        """The early-reply scorer of this structure, built at first use."""
        return MfsScorer(self.graph, self.start, self.rounds + 1)

    def __getstate__(self):
        # the scorer holds closures that do not pickle; it is rebuilt on use
        return {k: v for k, v in vars(self).items() if k != "scorer"}


@dataclass(frozen=True)
class RoundRecord:
    challenge: str
    response: str
    expected: str
    timing_ok: bool = True  # the round timing check is not modelled


@dataclass(frozen=True)
class SessionTranscript:
    verifier_nonce: str
    prover_nonce: str
    rounds: tuple[RoundRecord, ...]
    accepted: bool
    failed_round: int | None

    def to_json_dict(self) -> dict:
        # fields in declaration order, each round as a dict of its own
        return {**vars(self), "rounds": [dict(vars(r)) for r in self.rounds]}


def _replies_for(strategy, labeled, config, limits) -> tuple[str, ...]:
    """Every reply that is not the honest walk: early or greedy."""
    if strategy.kind == "early-reply":
        return config.scorer.best(labeled, limits)[1:]
    # greedy: the heaviest next-step walk mass, ties to the smallest symbol;
    # once no walk goes on, the smallest symbol of the alphabet
    counts = {config.start: 1}
    replies = []
    for _ in range(config.rounds):
        split = frontier_step(labeled.out_edges, counts, labeled.labels)
        sym = min(split, key=lambda s: (-sum(split[s].values()), s),
                  default=min(labeled.alphabet))
        replies.append(sym)
        counts = split.get(sym, {})
    return tuple(replies)


def _expected_labels(labeled: LabeledDigraph, start: int, challenges) -> tuple:
    """The verifier's walk: the label of each vertex the challenges reach."""
    out_edges, edge_labels = labeled.out_edges, labeled.edge_labels
    labels = labeled.labels
    if edge_labels is None:
        raise GraphError("graph has no edge labels")
    expected = []
    v = start
    for c in challenges:
        try:
            v = out_edges[v][edge_labels[v].index(c)]
        except ValueError:
            raise ProtocolError(
                f"no out-edge labeled {c!r} at vertex {v}; the configured "
                "graph dead-ends before the last round"
            ) from None
        expected.append(labels[v])
    return tuple(expected)


def _play(config, strategy, trial_index, limits) -> tuple:
    """The one session core: every session, with or without a transcript,
    is played here, so both readers see the same decision and errors.

    Returns (verifier_nonce, prover_nonce, challenges, responses, expected,
    failed_round), where failed_round, the first round whose response
    differs from the verifier's walk, is None for an accepted session.
    """
    rounds = config.rounds
    word = _prf_word(config.seed ^ (trial_index * 0xD1342543DE82EF95), 128 + rounds)
    verifier_nonce = (word & _MASK64).to_bytes(8, "big")
    prover_nonce = (word >> 64 & _MASK64).to_bytes(8, "big")
    labeled = config.labeler(config.graph, config.key, verifier_nonce, prover_nonce)
    challenges = format(word >> 128 | 1 << rounds, "b")[:0:-1]
    expected = _expected_labels(labeled, config.start, challenges)
    if strategy.kind == "honest":
        responses = expected  # the honest prover runs the same walk
    else:
        responses = _replies_for(strategy, labeled, config, limits)
    failed = None
    for i, (r, e) in enumerate(zip(responses, expected), 1):
        if r != e:
            failed = i
            break
    return verifier_nonce, prover_nonce, challenges, responses, expected, failed


def run_session(
    config: ProtocolConfig,
    strategy: AdversaryStrategy,
    *,
    trial_index: int = 0,
    limits: Limits = DEFAULT_LIMITS,
) -> SessionTranscript:
    """Play one session and record its transcript; deterministic in
    (config.seed, trial_index) and decided exactly as the rate estimator
    decides the same trial."""
    nonce_v, nonce_p, challenges, responses, expected, failed = _play(
        config, strategy, trial_index, limits
    )
    return SessionTranscript(
        verifier_nonce=nonce_v.hex(),
        prover_nonce=nonce_p.hex(),
        rounds=tuple(map(RoundRecord, challenges, responses, expected)),
        accepted=failed is None,
        failed_round=failed,
    )


def _session_accepts(config, strategy, trial_index, limits) -> bool:
    # transcript-free reader of the session core; bench/run.py calls it too
    return _play(config, strategy, trial_index, limits)[-1] is None


@dataclass(frozen=True)
class RateReport:
    trials: int
    accepted: int
    rate: float
    std_error: float
    seed: int
    strategy: str

    @classmethod
    def from_count(cls, config, strategy, accepted: int) -> RateReport:
        """Rate and binomial standard error of `accepted` of config.trials."""
        rate = accepted / config.trials
        std_error = sqrt(rate * (1.0 - rate) / config.trials)
        return cls(config.trials, accepted, rate, std_error, config.seed, strategy.kind)

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "trials": self.trials,
            "accepted": self.accepted,
            "rate": self.rate,
            "std_error": self.std_error,
            "seed": self.seed,
        }


def estimate_success_rate(
    config: ProtocolConfig,
    strategy: AdversaryStrategy,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> RateReport:
    """Acceptance rate over config.trials independent sessions.

    Each trial derives its own stream from (seed, trial index), so results
    are order-independent and reproducible.  Trials are played by the same
    session core as `run_session`, without building transcripts; a session
    that `run_session` would refuse raises here too.
    """
    accepted = sum(
        _session_accepts(config, strategy, t, limits)
        for t in range(config.trials)
    )
    return RateReport.from_count(config, strategy, accepted)


def exhaustive_challenge_success(
    labeled: LabeledDigraph,
    start: int,
    rounds: int,
    replies: Sequence[str] | str | None = None,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[int, int]:
    """Count accepting challenge strings for a FIXED labeled graph.

    `replies` fixes one reply per round; with replies=None the early-reply
    strategy (most-frequent-sequence suffix) is used.  Returns
    (accepting, 2**rounds); rounds < 1 raises ValueError, as
    `ProtocolConfig` does.
    """
    if labeled.edge_labels is None:
        raise ProtocolError("exhaustive challenge runs need edge labels")
    config = ProtocolConfig(graph=labeled, start=start, rounds=rounds)
    if replies is None:
        replies = _replies_for(early_reply(), labeled, config, limits)
    replies = tuple(replies)
    if len(replies) != rounds:
        raise ValueError(f"fixed replies cover {len(replies)} rounds, need {rounds}")
    accepted = 0
    for mask in range(1 << rounds):
        challenges = [str((mask >> i) & 1) for i in range(rounds)]
        accepted += _expected_labels(labeled, start, challenges) == replies
    return accepted, 1 << rounds
