"""CNF formulas, DIMACS parsing, and a small exhaustive SAT oracle.

Literals are DIMACS-style signed integers: +j for variable j, -j for its
negation, with variables numbered 1..n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimacsError


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of disjunctive clauses over n >= 2 variables.

    Tautological clauses (x and -x together) and empty clauses are
    rejected: the reduction to the sequence-frequency problem is not
    defined for them.
    """

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "clauses",
            tuple(tuple(sorted(set(cl), key=abs)) for cl in self.clauses),
        )
        n = self.variable_count
        if n < 2:
            raise DimacsError(
                f"need at least 2 variables (got {n}); single-variable "
                "formulas can be padded with an unused variable"
            )
        if not self.clauses:
            raise DimacsError("need at least one clause")
        for idx, clause in enumerate(self.clauses, 1):
            if not clause:
                raise DimacsError(f"clause {idx} is empty")
            seen = set()
            for lit in clause:
                var = abs(lit)
                if lit == 0 or var > n:
                    raise DimacsError(
                        f"clause {idx}: literal {lit} out of range 1..{n}"
                    )
                if -lit in seen:
                    raise DimacsError(
                        f"clause {idx} is a tautology (contains {var} and -{var})"
                    )
                seen.add(lit)

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.variable_count} {self.clause_count}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: 'c' comment lines, a 'p cnf <vars> <clauses>'
    header, then 0-terminated clauses (which may span lines)."""
    header: tuple[int, int] | None = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(
                    f"line {lineno}: malformed header {line!r}, "
                    "expected 'p cnf <vars> <clauses>'"
                )
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise DimacsError(f"line {lineno}: non-numeric header counts") from None
            continue
        if header is None:
            raise DimacsError(f"line {lineno}: clause before 'p cnf' header")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(
                    f"line {lineno}: invalid literal {token!r}"
                ) from None
            if lit == 0:
                if not current:
                    raise DimacsError(f"line {lineno}: empty clause")
                clauses.append(current)
                current = []
            else:
                if abs(lit) > header[0]:
                    raise DimacsError(
                        f"line {lineno}: literal {lit} exceeds the declared "
                        f"{header[0]} variables"
                    )
                current.append(lit)
    if header is None:
        raise DimacsError("missing 'p cnf' header")
    if current:
        raise DimacsError("last clause is not 0-terminated")
    if len(clauses) != header[1]:
        raise DimacsError(
            f"header declares {header[1]} clauses but {len(clauses)} were given"
        )
    return CnfFormula(header[0], tuple(tuple(cl) for cl in clauses))


def satisfies(f: CnfFormula, assignment: Sequence[bool]) -> bool:
    """True when the assignment (indexed by variable - 1) satisfies f."""
    if len(assignment) != f.variable_count:
        raise ValueError(
            f"assignment has {len(assignment)} values for "
            f"{f.variable_count} variables"
        )
    for clause in f.clauses:
        if not any(
            assignment[abs(lit) - 1] == (lit > 0) for lit in clause
        ):
            return False
    return True


# Variables covered by one bitset of assignments in brute_force_sat; a
# 2^16-bit bitset takes 8 KiB.
_BLOCK_VARIABLES = 16
# Byte patterns of variables 1..3 (bits 0..2 of the assignment index).
_LOW_BIT_BYTES = (b"\xaa", b"\xcc", b"\xf0")


def _variable_mask(j: int, block: int) -> int:
    """Bitset over the 2^block assignments of the low variables: bit a is
    set iff assignment a sets variable j + 1 (bit j of a)."""
    if j < 3:
        unit = _LOW_BIT_BYTES[j]
    else:
        half = 1 << (j - 3)
        unit = bytes(half) + b"\xff" * half
    size = max(1, (1 << block) >> 3)
    mask = int.from_bytes(unit * (size // len(unit)), "little")
    return mask & ((1 << (1 << block)) - 1)


def brute_force_sat(
    f: CnfFormula, *, max_variables: int = 24
) -> tuple[bool, ...] | None:
    """Exhaustive satisfiability check; returns a witness or None.

    The witness is the smallest satisfying assignment in binary counting
    order (variable 1 is the least significant bit).

    The search tests many assignments at once.  The low b = min(n, 16)
    variables span a block of 2^b assignments; a clause's bitset over the
    block is the OR of its literals' bitsets, and the formula's is the AND
    of its clauses', which stops at the first clause that leaves it empty.
    Blocks run over the upper n - b variables in ascending order, where
    each upper literal is constant, so the lowest set bit of the first
    nonempty block is the smallest witness.  Memory stays bounded by the
    block, not by 2^n: one bitset of at most 8 KiB per clause and per low
    variable (about 1 MiB for 140 clauses at n = 24).
    """
    n = f.variable_count
    if n > max_variables:
        raise ValueError(
            f"{n} variables exceed the exhaustive-search cap {max_variables}"
        )
    block = min(n, _BLOCK_VARIABLES)
    full = (1 << (1 << block)) - 1
    positive = [_variable_mask(j, block) for j in range(block)]
    negative = [mask ^ full for mask in positive]
    base = full  # the clauses over low variables only
    split = []  # (low bitset, upper positive bits, upper negative bits)
    for clause in f.clauses:
        low = upper_pos = upper_neg = 0
        for lit in clause:
            j = abs(lit) - 1
            if j < block:
                low |= positive[j] if lit > 0 else negative[j]
            elif lit > 0:
                upper_pos |= 1 << (j - block)
            else:
                upper_neg |= 1 << (j - block)
        if upper_pos or upper_neg:
            split.append((low, upper_pos, upper_neg))
        else:
            base &= low
            if not base:
                return None
    for upper in range(1 << (n - block)):
        inv = ~upper
        sat = base
        for low, upper_pos, upper_neg in split:
            if not (upper & upper_pos or inv & upper_neg):
                sat &= low
                if not sat:
                    break
        if sat:
            bits = ((sat & -sat).bit_length() - 1) | (upper << block)
            return tuple(bool((bits >> j) & 1) for j in range(n))
    return None
