import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rtlforge.checkpoints import (
    CheckRecord,
    CheckTrace,
    EmptyTrace,
    MAX_LITERAL_WIDTH,
    NoChecksFound,
    NotAMismatch,
    SummaryMismatch,
    TraceError,
    earliest_mismatch,
    extract_window,
    parse_trace,
    render_excerpt,
    render_window,
    score,
    value_bits,
    values_match,
)


def _flip_lsb(literal: str) -> str:
    """Invert the last bit of a 4'bxxxx literal: a guaranteed mismatch."""
    return literal[:-1] + ("1" if literal[-1] == "0" else "0")


def _generate_check_lines(rng: random.Random):
    """Random CHECK/SUMMARY text plus the generator's own ground truth.

    The generator decides per line whether it is a match or a mismatch and
    builds values accordingly; its counts are the oracle the parser must
    reproduce.
    """
    n = rng.randint(1, 100)
    lines = []
    t = rng.randint(0, 3)
    mismatch_ts = []
    ts = []
    for _ in range(n):
        bad = rng.random() < 0.3
        dut = f"4'b{rng.getrandbits(4):04b}"
        exp = _flip_lsb(dut) if bad else dut
        status = "MISMATCH" if bad else "MATCH"
        lines.append(
            f"CHECK time={t} in:a={rng.randint(0, 1)},b={rng.randint(0, 1)} "
            f"dut:y={dut} exp:y={exp} status={status}"
        )
        if bad:
            mismatch_ts.append(t)
        ts.append(t)
        if rng.random() < 0.2:
            lines.append("some simulator banner noise")
        t += rng.randint(1, 3)
    summary_first = mismatch_ts[0] if mismatch_ts else None
    lines.append(
        f"SUMMARY total={n} mismatches={len(mismatch_ts)} "
        f"first_mismatch={'none' if summary_first is None else summary_first}"
    )
    return "\n".join(lines), n, mismatch_ts, ts


class TestParseTrace:
    def test_two_checks_with_summary(self):
        stdout = (
            "CHECK time=0 in:a=0 dut:y=1 exp:y=1 status=MATCH\n"
            "CHECK time=1 in:a=1 dut:y=0 exp:y=1 status=MISMATCH\n"
            "SUMMARY total=2 mismatches=1 first_mismatch=1\n"
        )
        trace = parse_trace(stdout)
        assert trace.total_checks == 2
        assert trace.mismatches == 1
        assert trace.records[0].matched and not trace.records[1].matched

    def test_no_check_lines(self):
        with pytest.raises(NoChecksFound):
            parse_trace("iverilog banner\nVCD info: nothing\n")

    def test_noise_lines_ignored(self):
        stdout = (
            "warning: something\n"
            "CHECK time=3 in:a=1 dut:y=1 exp:y=1 status=MATCH\n"
            "CHECKpoint reached (not a record)\n"
        )
        trace = parse_trace(stdout)
        assert trace.total_checks == 1
        assert trace.records[0].t == 3

    def test_random_lines_match_generator_counts(self):
        rng = random.Random(42)
        for _ in range(100):
            stdout, n, mismatch_ts, ts = _generate_check_lines(rng)
            trace = parse_trace(stdout)
            assert trace.total_checks == n
            assert trace.mismatches == len(mismatch_ts)
            assert [r.t for r in trace.records] == ts
            assert earliest_mismatch(trace) == (mismatch_ts[0] if mismatch_ts else None)

    def test_summary_total_disagrees(self):
        stdout = (
            "CHECK time=0 in:a=0 dut:y=1 exp:y=1 status=MATCH\n"
            "SUMMARY total=2 mismatches=0 first_mismatch=none\n"
        )
        with pytest.raises(SummaryMismatch):
            parse_trace(stdout)

    def test_summary_mismatch_count_disagrees(self):
        stdout = (
            "CHECK time=0 in:a=0 dut:y=0 exp:y=1 status=MISMATCH\n"
            "SUMMARY total=1 mismatches=0 first_mismatch=none\n"
        )
        with pytest.raises(SummaryMismatch):
            parse_trace(stdout)

    def test_summary_first_mismatch_disagrees(self):
        stdout = (
            "CHECK time=0 in:a=0 dut:y=1 exp:y=1 status=MATCH\n"
            "CHECK time=5 in:a=0 dut:y=0 exp:y=1 status=MISMATCH\n"
            "SUMMARY total=2 mismatches=1 first_mismatch=0\n"
        )
        with pytest.raises(SummaryMismatch):
            parse_trace(stdout)

    def test_lying_status_token_is_caught_via_summary(self):
        # The testbench claims MATCH but the values disagree; the recomputed
        # counts then contradict the SUMMARY, flagging the bench as buggy.
        stdout = (
            "CHECK time=0 in:a=0 dut:y=0 exp:y=1 status=MATCH\n"
            "SUMMARY total=1 mismatches=0 first_mismatch=none\n"
        )
        with pytest.raises(SummaryMismatch):
            parse_trace(stdout)

    def test_non_increasing_time_rejected(self):
        stdout = (
            "CHECK time=1 in:a=0 dut:y=1 exp:y=1 status=MATCH\n"
            "CHECK time=1 in:a=0 dut:y=1 exp:y=1 status=MATCH\n"
        )
        with pytest.raises(TraceError):
            parse_trace(stdout)

    def test_mismatched_signal_sets_rejected(self):
        stdout = "CHECK time=0 in:a=0 dut:y=1 exp:z=1 status=MATCH\n"
        with pytest.raises(TraceError):
            parse_trace(stdout)

    def test_empty_input_section_allowed(self):
        trace = parse_trace("CHECK time=0 in: dut:y=1 exp:y=1 status=MATCH\n")
        assert trace.records[0].inputs == {}

    def test_huge_summary_integer_is_a_trace_error(self):
        # int() refuses more than 4300 digits; that ValueError once escaped.
        check = "CHECK time=0 in:a=0 dut:y=1 exp:y=1 status=MATCH\n"
        for summary in (
            f"SUMMARY total={'1' * 5000} mismatches=0 first_mismatch=none",
            f"SUMMARY total=1 mismatches={'0' * 5000} first_mismatch=none",
            f"SUMMARY total=1 mismatches=0 first_mismatch={'9' * 5000}",
        ):
            with pytest.raises(TraceError, match="^line 2: Exceeds the limit"):
                parse_trace(check + summary + "\n")


class TestValueComparison:
    @pytest.mark.parametrize(
        "dut,exp,match",
        [
            ("1", "1", True),
            ("0", "1", False),
            ("4'b0101", "4'b0101", True),
            ("4'b0101", "4'b0100", False),
            ("4'b010x", "4'b0101", False),  # unknown bit is a mismatch
            ("4'b010z", "4'b010z", False),  # even when "expected" is z
            ("4'b010x", "4'b010?", True),  # unless marked don't-care
            ("4'b1101", "4'b?101", True),
            ("x", "1", False),
            ("z", "?", True),
            ("8'hff", "8'b11111111", True),
            ("8'hf0", "8'b11110000", True),
            ("4'hx", "4'b????", True),
            ("2'd3", "2'b11", True),
            ("15", "1111", True),  # bare digit strings read as binary
        ],
    )
    def test_rules(self, dut, exp, match):
        assert values_match(dut, exp) is match

    def test_unparseable_falls_back_to_text_equality(self):
        assert values_match("weird!", "weird!")
        assert not values_match("weird!", "other!")
        assert not values_match("xweird!", "xweird!")  # x anywhere poisons

    def test_digits_of_only_underscores_are_not_a_literal(self):
        # A sized literal like this once raised IndexError out of parse_trace.
        for text in ("4'h_", "4'o__", "'h_", "4'b_"):
            assert value_bits(text) is None
        assert values_match("4'h_", "4'h_")
        assert not values_match("4'h_", "4'h0")
        trace = parse_trace("CHECK time=0 in: dut:y=4'h_ exp:y=4'h_ status=MATCH\n")
        assert trace.records[0].matched

    def test_non_ascii_digits_compare_as_text(self):
        # "²" passes str.isdigit(), and int() once raised ValueError on it.
        assert value_bits("²") is None
        assert values_match("²", "²")
        assert not values_match("²", "2")
        trace = parse_trace(
            "CHECK time=0 in: dut:y=² exp:y=² status=MATCH\n"
            "CHECK time=1 in: dut:y=² exp:y=2 status=MISMATCH\n"
        )
        assert [r.matched for r in trace.records] == [True, False]

    def test_value_bits_cache_is_bounded(self):
        assert value_bits.cache_info().maxsize == 4096

    def test_long_values_bypass_the_cache(self):
        long = "'h" + "f" * 10**6
        other = "'h" + "f" * (10**6 - 1) + "e"
        value_bits.cache_clear()
        trace = parse_trace(
            f"CHECK time=0 in: dut:y={long} exp:y={long} status=MATCH\n"
            f"CHECK time=1 in: dut:y={long} exp:y={other} status=MISMATCH\n"
        )
        assert [r.matched for r in trace.records] == [True, False]
        assert value_bits.cache_info().currsize == 0

    def test_declared_width_above_bound_is_not_a_literal(self):
        # 2**16 bits is the minimum vector width IEEE 1364/1800 require.
        assert value_bits(f"{MAX_LITERAL_WIDTH}'b1") == "0" * (MAX_LITERAL_WIDTH - 1) + "1"
        assert value_bits(f"000{MAX_LITERAL_WIDTH}'b1") == value_bits(f"{MAX_LITERAL_WIDTH}'b1")
        # These raised OverflowError / built a 200 MB string, or hit int()'s
        # digit limit.
        for width in (MAX_LITERAL_WIDTH + 1, 200000000, "9" * 20, "1" * 5000):
            assert value_bits(f"{width}'b1") is None
        # Leading zeros do not count towards int()'s digit limit.
        assert value_bits("0" * 5000 + "4'b1") == "0001"

    def test_over_wide_literals_compare_as_text(self):
        wide = "99999999999999999999'b1"
        assert values_match(wide, wide)
        assert not values_match(wide, "1")
        assert not values_match("200000000'bx", "200000000'bx")  # still rejects x/z
        trace = parse_trace(
            f"CHECK time=0 in: dut:y={wide} exp:y={wide} status=MATCH\n"
            f"CHECK time=1 in: dut:y={wide} exp:y=70000'b1 status=MISMATCH\n"
            "SUMMARY total=2 mismatches=1 first_mismatch=1\n"
        )
        assert [r.matched for r in trace.records] == [True, False]

    def test_long_decimals_decode_up_to_the_width_bound(self):
        # int() refuses more than 4300 digits; that ValueError once escaped
        # values_match and turned a well-formed CHECK line into a TraceError.
        nines = "9" * 5000
        assert value_bits(nines) == format(10**5000 - 1, "b")
        assert value_bits("'d" + nines) == value_bits(nines)
        assert value_bits("8'd" + nines) == format(10**5000 - 1, "b")[-8:]
        assert values_match(nines, nines) and values_match("'d" + nines, "'d" + nines)
        assert values_match("000" + nines, nines)
        assert not values_match(nines, nines[:-1] + "8")
        trace = parse_trace(
            f"CHECK time=0 in: dut:y={nines} exp:y={nines} status=MATCH\n"
            f"CHECK time=1 in: dut:y='d{nines} exp:y={nines[:-1]}8 status=MISMATCH\n"
        )
        assert [r.matched for r in trace.records] == [True, False]
        # A decimal as long as the largest MAX_LITERAL_WIDTH-bit value still
        # decodes; one digit more compares as text.
        top = "9" * 19729
        assert value_bits(top) is not None
        assert value_bits(top + "9") is None
        assert values_match(top + "9", top + "9")
        assert not values_match(top + "9", top + "8")

    def test_width_extension(self):
        assert value_bits("8'b1") == "00000001"
        assert value_bits("4'hx") == "xxxx"
        assert value_bits("8'hz") == "zzzzzzzz"


class TestLineMemo:
    GOOD = "CHECK time=0 in:a=0 dut:y=1 exp:y=1 status=MATCH"

    def test_identical_lines_share_one_record(self):
        memo = {}
        first = parse_trace(f"{self.GOOD}\nCHECK time=1 in:a=1 dut:y=0 exp:y=1 status=MISMATCH\n", memo)
        second = parse_trace(f"noise\n{self.GOOD}\nCHECK time=1 in:a=1 dut:y=1 exp:y=1 status=MATCH\n", memo)
        assert second.records[0] is first.records[0] is memo[self.GOOD]
        assert second.records[1] is not first.records[1]
        assert (first.mismatches, second.mismatches) == (1, 0)
        assert len(memo) == 3

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("CHECK time=1 in:a=0 dut:y=1,noeq exp:y=1 status=MATCH",
             "malformed signal pair 'noeq' on line {}"),
            ("CHECK time=1 in:a=0 dut:y=1 exp:q=1 status=MATCH",
             "line {}: dut/exp signal sets differ at t=1: ['y'] vs ['q']"),
        ],
    )
    def test_failing_line_raises_each_time_with_its_own_line_number(self, bad, message):
        memo = {}
        for stdout, line_no in ((f"{self.GOOD}\n{bad}\n", 2), (f"banner\n{self.GOOD}\n\n{bad}\n", 4)):
            with pytest.raises(TraceError) as info:
                parse_trace(stdout, memo)
            assert str(info.value) == message.format(line_no)
        assert bad not in memo and self.GOOD in memo


class TestScore:
    def test_zero_mismatches(self):
        trace = parse_trace(
            "\n".join(
                f"CHECK time={t} in:a=0 dut:y=1 exp:y=1 status=MATCH" for t in range(10)
            )
        )
        assert score(trace).value == 1.0

    def test_all_mismatches(self):
        trace = parse_trace(
            "\n".join(
                f"CHECK time={t} in:a=0 dut:y=0 exp:y=1 status=MISMATCH" for t in range(10)
            )
        )
        assert score(trace).value == 0.0

    def test_three_of_twenty(self):
        lines = []
        for t in range(20):
            bad = t in (4, 9, 14)
            lines.append(
                f"CHECK time={t} in:a=0 dut:y={'0' if bad else '1'} exp:y=1 "
                f"status={'MISMATCH' if bad else 'MATCH'}"
            )
        assert score(parse_trace("\n".join(lines))).value == 0.85

    def test_empty_trace_rejected(self):
        with pytest.raises(EmptyTrace):
            score(CheckTrace(records=(), total_checks=0, mismatches=0))

    @given(
        tc=st.integers(min_value=1, max_value=10_000),
        data=st.data(),
    )
    def test_score_matches_exact_fraction(self, tc, data):
        m = data.draw(st.integers(min_value=0, max_value=tc))
        trace = CheckTrace(records=(), total_checks=tc, mismatches=m)
        value = score(trace).value
        assert 0.0 <= value <= 1.0
        assert value == float(1 - Fraction(m, tc))
        assert (value == 1.0) == (m == 0)


def _make_trace(ts_and_matched):
    """Build a trace from (t, matched) pairs with synthetic values."""
    records = []
    for t, matched in ts_and_matched:
        records.append(
            CheckRecord(
                t=t,
                inputs={"a": "0"},
                dut_outputs={"y": "1" if matched else "0"},
                expected_outputs={"y": "1"},
            )
        )
    return CheckTrace.from_records(records)


class TestEarliestMismatch:
    def test_all_matched(self):
        trace = _make_trace([(0, True), (1, True)])
        assert earliest_mismatch(trace) is None

    def test_mismatch_at_origin(self):
        trace = _make_trace([(0, False), (1, True), (2, True)])
        assert earliest_mismatch(trace) == 0

    def test_sparse_ordinals(self):
        trace = _make_trace([(0, True), (1, True), (4, False), (6, True), (9, False)])
        assert earliest_mismatch(trace) == 4

    def test_matches_brute_force_on_random_traces(self):
        rng = random.Random(1234)
        for _ in range(1000):
            n = rng.randint(1, 40)
            ts = sorted(rng.sample(range(200), n))
            flags = [rng.random() < 0.6 for _ in ts]
            trace = _make_trace(list(zip(ts, flags)))
            brute = min(
                (r.t for r in trace.records if not r.matched), default=None
            )
            assert earliest_mismatch(trace) == brute


class TestExtractWindow:
    def test_lower_bound_clamps_at_zero(self):
        trace = _make_trace([(0, True), (1, True), (2, False)])
        window = extract_window(trace, 2, 5)
        assert [r.t for r in window.records] == [0, 1, 2]

    def test_dense_window_bounds(self):
        trace = _make_trace([(t, t != 10) for t in range(12)])
        window = extract_window(trace, 10, 4)
        assert [r.t for r in window.records] == [6, 7, 8, 9, 10]

    def test_not_a_mismatch(self):
        trace = _make_trace([(0, True), (1, False)])
        with pytest.raises(NotAMismatch):
            extract_window(trace, 0, 4)
        with pytest.raises(NotAMismatch):
            extract_window(trace, 7, 4)

    def test_random_windows_match_brute_force_filter(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(1, 50)
            ts = sorted(rng.sample(range(150), n))
            flags = [rng.random() < 0.5 for _ in ts]
            if all(flags):
                flags[rng.randrange(n)] = False
            trace = _make_trace(list(zip(ts, flags)))
            anchors = [r.t for r in trace.records if not r.matched]
            anchor = rng.choice(anchors)
            window_len = rng.randint(1, 12)
            window = extract_window(trace, anchor, window_len)
            brute = [
                r.t
                for r in trace.records
                if max(anchor - window_len, 0) <= r.t <= anchor
            ]
            assert [r.t for r in window.records] == brute
            assert len(window.records) <= window_len + 1
            assert not window.records[-1].matched

    def test_dense_length_is_anchor_plus_one_when_small(self):
        for anchor in range(5):
            trace = _make_trace([(t, t != anchor) for t in range(8)])
            window = extract_window(trace, anchor, 8)
            assert len(window.records) == anchor + 1


class TestRenderWindow:
    def _window(self):
        records = [
            CheckRecord(
                t=0, inputs={"b": "1", "a": "0"}, dut_outputs={"out": "1"},
                expected_outputs={"out": "1"},
            ),
            CheckRecord(
                t=1, inputs={"b": "1", "a": "1"}, dut_outputs={"out": "0"},
                expected_outputs={"out": "1"},
            ),
        ]
        trace = CheckTrace.from_records(records)
        return extract_window(trace, 1, 8)

    def test_minimal_render(self):
        trace = _make_trace([(0, False)])
        text = render_window(extract_window(trace, 0, 1))
        lines = text.splitlines()
        assert len(lines) == 2  # header + one row
        assert "first mismatch" in lines[-1]

    def test_deterministic(self):
        window = self._window()
        assert render_window(window) == render_window(window)

    def test_column_order_sorted_inputs_before_outputs(self):
        text = render_window(self._window())
        header = text.splitlines()[0]
        assert header.index("a") < header.index("b") < header.index("out:dut")
        assert header.index("out:dut") < header.index("out:exp")

    def test_rows_carry_values_and_status(self):
        text = render_window(self._window())
        rows = text.splitlines()[1:]
        assert "MATCH" in rows[0]
        assert "MISMATCH" in rows[1]
        assert "first mismatch" in rows[1]


class TestRenderExcerpt:
    def test_all_matched_trace_is_not_a_mismatch(self):
        with pytest.raises(NotAMismatch):
            render_excerpt(_make_trace([(0, True), (1, True)]))

    def test_window_at_the_first_mismatch(self):
        trace = _make_trace([(t, t not in (9, 11)) for t in range(14)])
        assert render_excerpt(trace, 4) == render_window(extract_window(trace, 9, 4))
        assert render_excerpt(trace) == render_window(extract_window(trace, 9, 8))
