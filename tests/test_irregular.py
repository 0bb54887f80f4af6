"""The irregular 0/1 sequences and their finite prefix theories."""

import pytest

from defeq import irregular
from defeq.folang import formula_to_text
from defeq.irregular import (
    PREFIX_ONLY_NOTE, Pattern, chain_stats, emit_ts_axioms, find_pattern,
    irregularity_report, marker_positions, master_symbol, membership,
    parse_pattern, pattern_occurs_at, symbols,
)
from defeq.models import enumerate_models


def naive_master(length):
    """Block-by-block oracle: the 2**l binary words of width l, then a marker."""
    out = []
    width = 1
    while len(out) < length:
        for j in range(2 ** width):
            out.extend(format(j, "b").zfill(width))
        out.append("x")
        width += 1
    return out[:length]


# ------------------------------------------------------------
# the master sequence
# ------------------------------------------------------------

def test_master_prefix_frozen():
    assert symbols("master", 0, 15) == \
        ["0", "1", "x", "0", "0", "0", "1", "1", "0", "1", "1", "x", "0", "0", "0"]


def test_master_matches_the_block_oracle():
    oracle = naive_master(5000)
    assert [master_symbol(k) for k in range(5000)] == oracle


def test_marker_positions_frozen():
    assert marker_positions(110) == [2, 11, 36, 101]
    assert marker_positions(4000) == [2, 11, 36, 101, 262, 647, 1544, 3593]
    assert marker_positions(2) == []
    # markers sit where the oracle writes its block terminator
    oracle = naive_master(4000)
    assert [k for k, s in enumerate(oracle) if s == "x"] == marker_positions(4000)


# ------------------------------------------------------------
# variants
# ------------------------------------------------------------

def test_builtin_variants():
    assert [membership("s0", k) for k in range(6)] == \
        [False, True, False, False, False, False]
    assert membership("s1", 2) is True   # markers count as members here
    assert membership("s0", 2) is False
    assert [membership("evens", k) for k in range(5)] == \
        [True, False, True, False, True]
    assert symbols("s0", 0, 12) == list("010000110110")
    assert symbols("s1", 0, 12) == list("011000110111")
    with pytest.raises(ValueError):
        membership("master", 3)
    with pytest.raises(ValueError):
        membership("unknown", 3)
    with pytest.raises(ValueError):
        membership("s0", -1)


# ------------------------------------------------------------
# patterns
# ------------------------------------------------------------

def test_pattern_round_trip():
    p = parse_pattern("0,2:3")
    assert p == Pattern(3, frozenset({0, 2}))
    assert p.to_text() == "0,2:3"
    assert parse_pattern(":2") == Pattern(2, frozenset())
    assert parse_pattern(":2").to_text() == ":2"
    for bad in ["1,2", "2:", "x:3", "3:-1", "5:2"]:
        with pytest.raises(ValueError):
            parse_pattern(bad)


def test_find_pattern_frozen():
    # s0 starts 0100001101 1 0..., so ones at window offsets {0,2} first
    # happens at position 7 (bits 1,0,1)
    assert find_pattern("s0", parse_pattern("0,2:3"), 1000) == 7
    assert pattern_occurs_at("s0", parse_pattern("0,2:3"), 7)
    assert not pattern_occurs_at("s0", parse_pattern("0,2:3"), 0)
    assert find_pattern("s0", parse_pattern("0:1"), 1000) == 1
    assert find_pattern("evens", parse_pattern(":2"), 10 ** 4) is None


def naive_report_counts(variant, max_n, bound):
    counts = {}
    for n in range(1, max_n + 1):
        windows = {}
        for p in range(bound - n + 1):
            members = frozenset(m for m in range(n) if membership(variant, p + m))
            windows.setdefault(members, [0, None])
            windows[members][0] += 1
            if windows[members][1] is None:
                windows[members][1] = p
        for members, (count, first) in windows.items():
            counts[Pattern(n, members)] = (count, first)
    return counts


def test_report_matches_a_naive_window_scan():
    got = irregularity_report("s0", 3, 400)
    naive = naive_report_counts("s0", 3, 400)
    assert len(got.entries) == 14
    for entry in got.entries:
        count, first = naive.get(entry.pattern, (0, None))
        assert (entry.count, entry.first) == (count, first), entry.pattern.to_text()


def test_report_reads_first_starts_off_its_window_pass(monkeypatch):
    def rescan(*args):
        raise AssertionError("find_pattern rescans the sequence")

    monkeypatch.setattr(irregular, "find_pattern", rescan)
    got = irregularity_report("s0", 5, 2000)
    naive = naive_report_counts("s0", 5, 2000)
    assert len(got.entries) == 62
    for entry in got.entries:
        assert (entry.count, entry.first) == naive.get(entry.pattern, (0, None))


def test_report_verdicts():
    ok = irregularity_report("s0", 4, 100_000)
    assert len(ok.entries) == 30 and ok.ok and not ok.missing
    assert all(e.count >= 2 for e in ok.entries)
    bad = irregularity_report("evens", 2, 1000)
    assert not bad.ok
    assert sorted(p.to_text() for p in bad.missing) == ["0,1:2", ":2"]


# ------------------------------------------------------------
# marker chains
# ------------------------------------------------------------

def test_chain_stats_frozen():
    marks = marker_positions(4000)
    for n, pos in enumerate(marks, start=1):
        st = chain_stats("s0", pos, 4000)
        assert st.ones_before == n
        assert st.zeros_after == 2 * n + 1
        assert not st.truncated
    cut = chain_stats("s0", 11, 14)
    assert cut.truncated and cut.zeros_after == 2
    with pytest.raises(ValueError):
        chain_stats("s1", 2, 100)
    with pytest.raises(ValueError):
        chain_stats("s0", 100, 50)


# ------------------------------------------------------------
# prefix theories
# ------------------------------------------------------------

def test_emit_ts_axioms_frozen():
    t = emit_ts_axioms("s0", 4)
    texts = [formula_to_text(ax) for ax in t.axioms]
    assert texts == [
        "!R(zero)",
        "R(suc(zero))",
        "!R(suc(suc(zero)))",
        "!R(suc(suc(suc(zero))))",
        "A x. !(suc(x)=zero)",
        "A x. A y. suc(x)=suc(y) -> x=y",
        "A x. !(suc(x)=x)",
        "A x. !(suc(suc(x))=x)",
        "A x. !(suc(suc(suc(x)))=x)",
        "A x. !(suc(suc(suc(suc(x))))=x)",
    ]
    assert t.note == PREFIX_ONLY_NOTE
    assert t.name == "ts-s0-4"
    assert set(t.sig.relations) == {"R"} and set(t.sig.functions) == {"suc"}


def test_prefix_theory_membership_tracks_the_variant():
    t1 = emit_ts_axioms("s1", 3)
    assert formula_to_text(t1.axioms[2]) == "R(suc(suc(zero)))"  # marker in s1


def test_prefix_theories_have_no_finite_models():
    # successor injectivity plus a never-zero value cannot fit a finite set
    t = emit_ts_axioms("s0", 3)
    for n in range(1, 7):
        assert enumerate_models(t, n) == []
