import random

import pytest

from mfskit import (
    CnfFormula,
    DimacsError,
    ResourceLimitError,
    brute_force_sat,
    parse_dimacs,
    satisfies,
)

EXAMPLE = """c running example
p cnf 3 3
1 -2 0
2 -3 0
-1 -2 -3 0
"""


def test_parse_example(example_formula):
    f = parse_dimacs(EXAMPLE)
    assert f == example_formula
    assert f.variable_count == 3
    assert f.clause_count == 3


def test_clauses_may_span_lines():
    f = parse_dimacs("p cnf 3 2\n1 -2\n3 0 2 0\n")
    assert f.clauses == ((1, -2, 3), (2,))


def test_tautology_rejected():
    with pytest.raises(DimacsError, match="tautology"):
        parse_dimacs("p cnf 2 1\n1 -1 0\n")


def test_empty_clause_rejected():
    with pytest.raises(DimacsError, match="line 2: empty clause"):
        parse_dimacs("p cnf 2 1\n0\n")


def test_single_variable_rejected():
    with pytest.raises(DimacsError, match="at least 2 variables"):
        parse_dimacs("p cnf 1 1\n1 0\n")


def test_header_required_and_unique():
    with pytest.raises(DimacsError, match="before 'p cnf' header"):
        parse_dimacs("1 2 0\n")
    with pytest.raises(DimacsError, match="missing 'p cnf' header"):
        parse_dimacs("c nothing here\n")
    with pytest.raises(DimacsError, match="duplicate header"):
        parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0\n")


def test_literal_range_checked():
    with pytest.raises(DimacsError, match="literal 5 exceeds"):
        parse_dimacs("p cnf 2 1\n5 0\n")


def test_clause_count_checked():
    with pytest.raises(DimacsError, match="declares 2 clauses but 1"):
        parse_dimacs("p cnf 2 2\n1 2 0\n")


def test_unterminated_clause_rejected():
    with pytest.raises(DimacsError, match="not 0-terminated"):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_bad_token_reports_line():
    with pytest.raises(DimacsError, match="line 3: invalid literal 'x'"):
        parse_dimacs("p cnf 2 2\n1 0\nx 0\n")


def test_satlib_end_marker_ends_the_clauses():
    # SATLIB benchmark files (uf20-91 and others) close with '%' and '0'
    text = "c uf-style\np cnf 3  2 \n 1 -2 3 0\n-1 2 0\n%\n0\n\n"
    assert parse_dimacs(text) == CnfFormula(3, ((1, -2, 3), (-1, 2)))
    with pytest.raises(DimacsError, match="declares 3 clauses but 2"):
        parse_dimacs(text.replace("p cnf 3  2", "p cnf 3 3"))


def test_to_dimacs_round_trip(example_formula):
    assert parse_dimacs(example_formula.to_dimacs()) == example_formula


def test_duplicate_literals_collapse():
    f = CnfFormula(2, ((1, 1, -2),))
    assert f.clauses == ((1, -2),)


def test_satisfies(example_formula):
    assert satisfies(example_formula, (True, True, False))
    assert satisfies(example_formula, (False, False, False))
    assert not satisfies(example_formula, (False, True, False))
    with pytest.raises(ValueError, match="2 values for 3"):
        satisfies(example_formula, (True, False))


def test_brute_force_finds_witness(example_formula):
    witness = brute_force_sat(example_formula)
    assert witness is not None
    assert satisfies(example_formula, witness)


def test_brute_force_unsat_with_padding_variable():
    f = CnfFormula(2, ((1,), (-1,)))
    assert brute_force_sat(f) is None


def test_brute_force_variable_cap():
    for n in (25, 30):
        cap = f"{n} variables exceed the exhaustive-search cap 24"
        with pytest.raises(ResourceLimitError, match=cap):
            brute_force_sat(CnfFormula(n, ((1, 2),)))


def test_brute_force_at_the_cap():
    assert brute_force_sat(CnfFormula(24, ((24,), (-1,)))) == (False,) * 23 + (True,)


def _counting_order_sat(f):
    """The exhaustive loop brute_force_sat replaced: one assignment at a
    time in binary counting order, kept as its oracle."""
    n = f.variable_count
    clause_masks = []
    for clause in f.clauses:
        pos = 0
        neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        clause_masks.append((pos, neg))
    full = (1 << n) - 1
    for bits in range(1 << n):
        inv = bits ^ full
        if all(bits & pos or inv & neg for pos, neg in clause_masks):
            return tuple(bool((bits >> j) & 1) for j in range(n))
    return None


def _oracle_formula(rng: random.Random, n: int, units=()) -> CnfFormula:
    """Random formula of 1-3 literal clauses after the unit clauses `units`.

    Past 16 variables the random clauses are few and at least two literals
    wide, so they leave the formula satisfiable with small witnesses.  The
    unit clauses come first, so the oracle rejects each assignment they
    exclude at its first clause.
    """
    wide = n > 16
    clauses = list(units)
    for _ in range(rng.randint(1, n // 2 if wide else 2 * n)):
        variables = rng.sample(range(1, n + 1), rng.randint(1 + wide, min(3, n)))
        clauses.append(tuple(v if rng.getrandbits(1) else -v for v in variables))
    return CnfFormula(n, tuple(clauses))


def test_brute_force_matches_the_counting_order_oracle():
    # variable 17 is the first one above brute_force_sat's 16-variable
    # block: forcing it true moves the witness past the block, and forcing
    # it both ways at n = 17 makes a formula that spans blocks unsatisfiable
    past_block_units = [(), ((17,),), ((17,),), ((17,), (-17,))]
    rng = random.Random(12)
    seen = {"unsat": 0, "unsat_past_block": 0, "in_block": 0, "past_block": 0}
    for n in range(2, 21):
        for k in range(18 if n <= 16 else 8):
            units = past_block_units[k % 4] if n > 16 else ()
            f = _oracle_formula(rng, n, units[: 1 if n > 17 else 2])
            witness = _counting_order_sat(f)
            assert brute_force_sat(f) == witness, f
            if witness is None:
                seen["unsat" if n <= 16 else "unsat_past_block"] += 1
            elif any(witness[16:]):
                seen["past_block"] += 1
            else:
                seen["in_block"] += 1
    assert sum(seen.values()) >= 300
    assert min(seen.values()) >= 2 and seen["past_block"] >= 10, seen
