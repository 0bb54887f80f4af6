"""The master 0/1/x sequence, its completions, and pattern irregularity.

The master sequence lists, for block length l = 1, 2, 3, ..., every binary
string of length l in lexicographic order, and drops a single marker symbol
x after each block:

    0 1 x 00 01 10 11 x 000 001 ... 111 x 0000 ...

S0 reads markers as 0, S1 reads them as 1; both determine subsets of the
naturals.  A (P, n)-pattern asks that, in a window of n consecutive
positions, membership hold exactly on the offsets in P.  The report
machinery counts pattern occurrences; the built-in evens variant is the
regular set the patterns are meant to separate from.
"""

from __future__ import annotations

from collections.abc import Callable

from .folang import (MAX_SYNTAX_DEPTH, App, Const, Eq, Forall, Formula, Implies, Not,
                     Rel, Signature, Term, Var)
from .models import Theory
from .record import Record

__all__ = [
    "master_symbol", "membership", "marker_positions", "symbols",
    "Pattern", "parse_pattern", "pattern_occurs_at", "find_pattern",
    "ReportEntry", "IrregularityReport", "irregularity_report",
    "ChainStats", "chain_stats", "emit_ts_axioms", "VARIANTS",
]


def _locate(k: int) -> tuple[int, int]:
    """(block length l, offset within block) for position k.

    The marker after block l sits at offset l * 2**l; the block runs for
    l * 2**l symbols before it.  O(log k) loop since block sizes double.
    """
    if k < 0:
        raise ValueError("positions start at 0")
    length = 1
    while True:
        span = length * (1 << length)
        if k <= span:
            return length, k
        k -= span + 1
        length += 1


def master_symbol(k: int) -> str:
    """Symbol at position k of the master sequence: '0', '1', or 'x'."""
    length, offset = _locate(k)
    if offset == length * (1 << length):
        return "x"
    string_index, char_index = divmod(offset, length)
    # strings of one block come in lexicographic order, most significant bit first
    return "1" if string_index >> (length - 1 - char_index) & 1 else "0"


def marker_positions(bound: int) -> list[int]:
    """Positions of every marker below bound, ascending; x_n is entry n-1."""
    out = []
    pos = 0
    length = 1
    while True:
        pos += length * (1 << length)
        if pos >= bound:
            return out
        out.append(pos)
        pos += 1
        length += 1


def _s0(k: int) -> bool:
    return master_symbol(k) == "1"


def _s1(k: int) -> bool:
    return master_symbol(k) != "0"


def _evens(k: int) -> bool:
    return k % 2 == 0


VARIANTS: dict[str, Callable[[int], bool]] = {
    "s0": _s0,
    "s1": _s1,
    "evens": _evens,
}


def membership(variant: str, k: int) -> bool:
    """Is k in the named set?  The three-valued 'master' has no membership."""
    try:
        pred = VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}; known: "
                         f"{['master'] + sorted(VARIANTS)}") from None
    if k < 0:
        raise ValueError("positions start at 0")
    return pred(k)


def symbols(variant: str, start: int, stop: int) -> list[str]:
    """Symbols at positions start..stop-1; '0'/'1'/'x' for master, bits otherwise."""
    if start < 0 or stop < start:
        raise ValueError("need 0 <= start <= stop")
    if variant == "master":
        return [master_symbol(k) for k in range(start, stop)]
    return ["1" if membership(variant, k) else "0" for k in range(start, stop)]


# ============================================================
# patterns
# ============================================================

class Pattern(Record):
    """A window shape: offsets within 0..n-1 that must be members."""

    __slots__ = ("n", "members")
    n: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("pattern length must be positive")
        if not all(0 <= m < self.n for m in self.members):
            raise ValueError("pattern members must lie in 0..n-1")

    def to_text(self) -> str:
        return ",".join(map(str, sorted(self.members))) + f":{self.n}"


def parse_pattern(text: str) -> Pattern:
    """Parse 'm1,m2,...:n'; an empty member list is written ':n'."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"pattern {text!r} needs the ':n' length suffix")
    try:
        n = int(tail)
        members = frozenset(int(p) for p in head.split(",") if p.strip() != "")
    except ValueError:
        raise ValueError(f"malformed pattern {text!r}") from None
    return Pattern(n, members)


def pattern_occurs_at(variant: str, p: Pattern, pos: int) -> bool:
    """Does the window at pos realize p exactly?"""
    return all(membership(variant, pos + m) == (m in p.members) for m in range(p.n))


def find_pattern(variant: str, p: Pattern, bound: int) -> int | None:
    """Least pos <= bound - p.n where p occurs, None when there is none."""
    for pos in range(bound - p.n + 1):
        if pattern_occurs_at(variant, p, pos):
            return pos
    return None


class ReportEntry(Record):
    __slots__ = ("pattern", "first", "count")
    pattern: Pattern
    first: int | None
    count: int


class IrregularityReport(Record):
    __slots__ = ("variant", "max_n", "bound", "entries")
    variant: str
    max_n: int
    bound: int
    entries: tuple[ReportEntry, ...]

    @property
    def ok(self) -> bool:
        """Every pattern up to max_n occurs below the bound."""
        return all(e.count > 0 for e in self.entries)

    @property
    def missing(self) -> tuple[Pattern, ...]:
        return tuple(e.pattern for e in self.entries if e.count == 0)


def irregularity_report(variant: str, max_n: int, bound: int) -> IrregularityReport:
    """Occurrence counts and first starts for all 2**1 + ... + 2**max_n patterns.

    Counts windows starting anywhere in 0..bound-n, the starts find_pattern
    scans.  The bit prefix is materialized once and, per n, one pass over
    it histograms the window values and notes where each value first
    starts, so the cost is O(bound * max_n) rather than per-pattern scans.
    """
    if max_n < 1 or bound < 1:
        raise ValueError("need max_n >= 1 and bound >= 1")
    bits = [1 if membership(variant, k) else 0 for k in range(bound)]
    entries = []
    for n in range(1, max_n + 1):
        counts = [0] * (1 << n)
        firsts: list[int | None] = [None] * (1 << n)
        window = 0
        for pos, bit in enumerate(bits):
            window = (window >> 1) | (bit << (n - 1))
            if pos >= n - 1:
                if not counts[window]:
                    firsts[window] = pos - n + 1
                counts[window] += 1
        for value in range(1 << n):
            p = Pattern(n, frozenset(m for m in range(n) if value >> m & 1))
            entries.append(ReportEntry(p, firsts[value], counts[value]))
    return IrregularityReport(variant, max_n, bound, tuple(entries))


# ============================================================
# chains around markers
# ============================================================

class ChainStats(Record):
    """Run lengths around a position in S0: ones before, zeros after."""

    __slots__ = ("ones_before", "zeros_after", "truncated")
    ones_before: int
    zeros_after: int
    truncated: bool


def chain_stats(variant: str, pos: int, bound: int) -> ChainStats:
    """Maximal 1-run ending just before pos and 0-run starting just after.

    Only meaningful for s0, whose markers are nonmembers; other variants
    are rejected.  The forward scan stops at bound and flags truncation.
    """
    if variant != "s0":
        raise ValueError("chain statistics are defined for the s0 variant")
    if not 0 <= pos < bound:
        raise ValueError("need 0 <= pos < bound")
    ones = 0
    j = pos - 1
    while j >= 0 and membership(variant, j):
        ones += 1
        j -= 1
    zeros = 0
    j = pos + 1
    while j < bound and not membership(variant, j):
        zeros += 1
        j += 1
    return ChainStats(ones, zeros, truncated=(j == bound))


# ============================================================
# prefix theories
# ============================================================

def _numeral(n: int) -> Term:
    t: Term = Const("zero")
    for _ in range(n):
        t = App("suc", (t,))
    return t


# The largest depth emit_ts_axioms takes: its deepest axiom,
# A x. !(suc^depth(x) = x), has depth + 4 nodes on one path.
_MAX_DEPTH = MAX_SYNTAX_DEPTH - 4


PREFIX_ONLY_NOTE = (
    "PREFIX-ONLY: these axioms pin down membership on positions 0..depth-1 "
    "plus finitely many successor facts; the full first-order theory of "
    "(N, zero, suc) is not finitely axiomatized here."
)


def emit_ts_axioms(variant: str, depth: int) -> Theory:
    """A finite prefix theory for the set: literals plus successor axioms.

    Signature {zero, suc, R}; for n < depth an axiom R(suc^n(zero)) or its
    negation per membership, then suc is injective, avoids zero, and has no
    cycles shorter than depth+1.  The note field carries the PREFIX-ONLY
    marker; no finite theory here can say more than a prefix.  A depth
    above 137, whose axioms would nest deeper than MAX_SYNTAX_DEPTH, is
    refused, so every theory made here reads back.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if depth > _MAX_DEPTH:
        raise ValueError(f"depth {depth} is more than {_MAX_DEPTH}: the acyclicity axioms "
                         f"would nest deeper than a theory may ({MAX_SYNTAX_DEPTH} levels)")
    sig = Signature({"R": 1}, {"suc": 1}, ["zero"])
    axioms: list[Formula] = []
    for n in range(depth):
        literal: Formula = Rel("R", (_numeral(n),))
        if not membership(variant, n):
            literal = Not(literal)
        axioms.append(literal)
    x, y = Var("x"), Var("y")
    axioms.append(Forall("x", Not(Eq(App("suc", (x,)), Const("zero")))))
    axioms.append(Forall("x", Forall("y", Implies(
        Eq(App("suc", (x,)), App("suc", (y,))), Eq(x, y)))))
    for k in range(1, depth + 1):
        t: Term = x
        for _ in range(k):
            t = App("suc", (t,))
        axioms.append(Forall("x", Not(Eq(t, x))))
    return Theory(sig, axioms, name=f"ts-{variant}-{depth}", note=PREFIX_ONLY_NOTE)
