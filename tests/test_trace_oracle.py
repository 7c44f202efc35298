"""Oracles for the checkpoint parser.

* ``value_bits`` and ``values_match`` against a brute-force, bit-at-a-time
  reference over random Verilog literals;
* ``parse_trace`` against a frozen copy of the straightforward parser
  (one regex per line kind, a helper per signal pair, a validating record
  constructor) over random traces with noise and protocol violations, parsed
  alone and, drawn from a few shared stimuli, through one shared line memo.

Strategies never draw a literal whose digits are all underscores: the frozen
parser raises IndexError on the sized ones, where ``value_bits`` now returns
None (``test_checkpoints.py`` pins that).
"""

import random
import re
import sys
import threading
from collections import Counter
from typing import Optional

from hypothesis import given, settings, strategies as st

from rtlforge.checkpoints import (
    NoChecksFound,
    SummaryMismatch,
    TraceError,
    parse_trace,
    value_bits,
    values_match,
)

# ---------------------------------------------------------------------------
# Brute-force value reference

_DIGIT_BITS = {"b": 1, "o": 3, "h": 4}


def ref_bits(text: str) -> Optional[str]:
    """Bit string of a literal, decoded one character at a time."""
    text = text.strip()
    if not text:
        return None
    if all(c in "01xXzZ?" for c in text):
        return text.lower()
    if text.isascii() and text.isdigit():  # bare digit strings are decimal
        return bin(int(text))[2:]
    tick = text.find("'")
    if tick < 0:
        return None
    width_s, rest = text[:tick], text[tick + 1 :]
    if width_s and not width_s.isdecimal():
        return None
    if rest[:1] in ("s", "S"):
        rest = rest[1:]
    if len(rest) < 2 or rest[0].lower() not in "bodh":
        return None
    base, digits = rest[0].lower(), rest[1:]
    if any(c not in "0123456789abcdefABCDEFxXzZ?_" for c in digits):
        return None
    digits = digits.replace("_", "").lower()
    if base == "d":
        if not digits or any(c not in "0123456789" for c in digits):
            return None
        bits = bin(int(digits))[2:]
    else:
        size = _DIGIT_BITS[base]
        bits = ""
        for c in digits:
            if c in "xz?":
                bits += c * size
                continue
            value = int(c, 16)
            if value >= 1 << size:
                return None
            bits += "".join(str(value >> k & 1) for k in reversed(range(size)))
    if width_s:
        width = int(width_s)
        if width == 0 or width > 1 << 16:
            return None
        while len(bits) < width:
            bits = (bits[0] if bits[0] in "xz?" else "0") + bits
        bits = bits[len(bits) - width :]
    return bits


def ref_match(dut: str, exp: str) -> bool:
    dut_bits, exp_bits = ref_bits(dut), ref_bits(exp)
    if dut_bits is None or exp_bits is None:
        return dut == exp and not any(c in "xzXZ" for c in dut)
    while len(dut_bits) < len(exp_bits):
        dut_bits = "0" + dut_bits
    while len(exp_bits) < len(dut_bits):
        exp_bits = "0" + exp_bits
    for d, e in zip(dut_bits, exp_bits):
        if e == "?":
            continue
        if d in "xz" or d != e:
            return False
    return True


# ---------------------------------------------------------------------------
# Literal strategy

_BASE_DIGITS = {"b": "01", "o": "01234567", "d": "0123456789", "h": "0123456789abcdef"}


@st.composite
def sized_literals(draw) -> str:
    base = draw(st.sampled_from("bodh"))
    # Mostly in-base digits, sometimes one from another base or x/z/?.
    alphabet = _BASE_DIGITS[base] + "xz?_"
    if draw(st.booleans()):
        alphabet += "9fFA"
    digits = draw(st.text(alphabet=alphabet, min_size=1, max_size=12).filter(
        lambda s: s.strip("_")
    ))
    if draw(st.booleans()):
        digits = digits.upper()
    width = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=40)))
    signed = draw(st.sampled_from(["", "s", "S"]))
    base = draw(st.sampled_from([base, base.upper()]))
    return f"{'' if width is None else width}'{signed}{base}{digits}"


literals = st.one_of(
    sized_literals(),
    st.text(alphabet="01xXzZ?", min_size=1, max_size=10),  # bare bit strings
    st.text(alphabet="0123456789", min_size=1, max_size=12),  # bare digit strings
    st.text(alphabet="01x'bhd?zq!", min_size=0, max_size=8),  # near misses
)


class TestValueOracle:
    @settings(max_examples=600, deadline=None)
    @given(text=literals, pad=st.sampled_from(["", " ", "\t "]))
    def test_value_bits_matches_reference(self, text, pad):
        assert value_bits(pad + text + pad) == ref_bits(text)

    @settings(max_examples=600, deadline=None)
    @given(dut=literals, exp=literals)
    def test_values_match_matches_reference(self, dut, exp):
        assert values_match(dut, exp) is ref_match(dut, exp)

    @settings(max_examples=300, deadline=None)
    @given(text=literals)
    def test_identical_texts(self, text):
        assert values_match(text, text) is ref_match(text, text)

    def test_pinned_quirks(self):
        assert ref_bits("15") == value_bits("15") == "1111"  # bare digits: decimal
        assert ref_bits("10") == value_bits("10") == "10"  # ...unless all 0/1
        assert ref_bits("0'b1") is value_bits("0'b1") is None
        assert ref_bits("4'hx") == value_bits("4'hx") == "xxxx"
        assert ref_bits("6'o7") == value_bits("6'o7") == "000111"
        assert ref_bits("4'sB1_0") == value_bits("4'sB1_0") == "0010"


# ---------------------------------------------------------------------------
# The frozen parser


_F_CHECK_RE = re.compile(
    r"^\s*CHECK time=(\d+) in:(\S*) dut:(\S+) exp:(\S+) status=(MATCH|MISMATCH)\s*$"
)
_F_SUMMARY_RE = re.compile(
    r"^\s*SUMMARY total=(\d+) mismatches=(\d+) first_mismatch=(\d+|none)\s*$"
)
_F_LITERAL_RE = re.compile(r"^(\d+)?'[sS]?([bBdDhHoO])([0-9a-fA-FxXzZ?_]+)$")
_F_HEX = {**{format(i, "x"): format(i, "04b") for i in range(16)}, "x": "xxxx", "z": "zzzz", "?": "????"}
_F_OCT = {**{format(i, "o"): format(i, "03b") for i in range(8)}, "x": "xxx", "z": "zzz", "?": "???"}


def frozen_value_bits(text):
    text = text.strip()
    if not text:
        return None
    if re.fullmatch(r"[01xXzZ?]+", text):
        return text.lower()
    if text.isascii() and text.isdigit():
        return format(int(text), "b")
    m = _F_LITERAL_RE.match(text)
    if m is None:
        return None
    width_s, base, digits = m.groups()
    digits = digits.replace("_", "").lower()
    base = base.lower()
    if base == "b":
        if not re.fullmatch(r"[01xz?]+", digits):
            return None
        bits = digits
    elif base == "h":
        if not all(d in _F_HEX for d in digits):
            return None
        bits = "".join(_F_HEX[d] for d in digits)
    elif base == "o":
        if not all(d in _F_OCT for d in digits):
            return None
        bits = "".join(_F_OCT[d] for d in digits)
    else:
        if not (digits.isascii() and digits.isdigit()):
            return None
        bits = format(int(digits), "b")
    if width_s:
        width = int(width_s)
        if width <= 0:
            return None
        if len(bits) < width:
            pad = bits[0] if bits[0] in "xz?" else "0"
            bits = pad * (width - len(bits)) + bits
        elif len(bits) > width:
            bits = bits[-width:]
    return bits


def frozen_values_match(dut_text, expected_text):
    dut_bits = frozen_value_bits(dut_text)
    exp_bits = frozen_value_bits(expected_text)
    if dut_bits is None or exp_bits is None:
        return dut_text == expected_text and not re.search(r"[xzXZ]", dut_text)
    width = max(len(dut_bits), len(exp_bits))
    dut_bits = dut_bits.rjust(width, "0")
    exp_bits = exp_bits.rjust(width, "0")
    for d, e in zip(dut_bits, exp_bits):
        if e == "?":
            continue
        if d in "xz":
            return False
        if d != e:
            return False
    return True


def _frozen_pairs(section, line_no):
    pairs = {}
    if not section:
        return pairs
    for chunk in section.split(","):
        name, sep, value = chunk.partition("=")
        if not sep or not name:
            raise TraceError(f"malformed signal pair {chunk!r} on line {line_no}")
        pairs[name] = value
    return pairs


def _frozen_record(t, inputs, dut, exp):
    if t < 0:
        raise ValueError("check ordinal must be >= 0")
    if set(dut) != set(exp):
        raise ValueError(
            f"dut/exp signal sets differ at t={t}: {sorted(dut)} vs {sorted(exp)}"
        )
    if not dut:
        raise ValueError(f"record at t={t} has no output signals")
    ok = all(frozen_values_match(dut[name], exp[name]) for name in dut)
    return (t, inputs, dut, exp, ok)


def frozen_parse_trace(stdout):
    """Records as (t, inputs, dut, exp, matched), total and mismatch count."""
    records = []
    summary = None
    for line_no, line in enumerate(stdout.splitlines(), start=1):
        m = _F_CHECK_RE.match(line)
        if m:
            t_s, in_s, dut_s, exp_s, _status = m.groups()
            try:
                record = _frozen_record(
                    int(t_s),
                    _frozen_pairs(in_s, line_no),
                    _frozen_pairs(dut_s, line_no),
                    _frozen_pairs(exp_s, line_no),
                )
            except ValueError as exc:
                raise TraceError(f"line {line_no}: {exc}") from exc
            records.append(record)
            continue
        s = _F_SUMMARY_RE.match(line)
        if s:
            total_s, mism_s, first_s = s.groups()
            summary = (int(total_s), int(mism_s), None if first_s == "none" else int(first_s))
    if not records:
        raise NoChecksFound("no CHECK lines found in simulation output")
    for prev, cur in zip(records, records[1:]):
        if cur[0] <= prev[0]:
            raise TraceError(f"check ordinals must strictly increase: {prev[0]} -> {cur[0]}")
    mismatches = sum(1 for r in records if not r[4])
    if summary is not None:
        total, summary_mismatches, first = summary
        computed_first = next((r[0] for r in records if not r[4]), None)
        if total != len(records):
            raise SummaryMismatch(
                f"SUMMARY total={total} but {len(records)} CHECK lines parsed"
            )
        if summary_mismatches != mismatches:
            raise SummaryMismatch(
                f"SUMMARY mismatches={summary_mismatches} but {mismatches} computed from records"
            )
        if first != computed_first:
            raise SummaryMismatch(
                f"SUMMARY first_mismatch={first} but records give {computed_first}"
            )
    return records, len(records), mismatches


# ---------------------------------------------------------------------------
# Random traces, drawn from one seeded generator per example: drawing each
# token through Hypothesis is 30-60x slower.

_NAMES = ["a", "b", "y", "o0", "o1"]
# Values as a testbench prints them, plus texts the literal rules reject
# (non-ASCII digits such as "²", which pass isdigit()) and an "=" inside a value.
_ODD_VALUES = ["0", "1", "x", "z", "?", "10", "15", "weird!", "xweird", "²", "a=b", "'h", "१२"]
_NOISE = [
    "",
    "VCD info: dumpfile waves.vcd opened for output.",
    "CHECKpoint reached (not a record)",
    "CHECK time=x in:a=1 dut:y=1 exp:y=1 status=MATCH",
    "CHECK time=3 in:a=1 dut:y=1 exp:y=1 status=MAYBE",
    "SUMMARY total=two mismatches=0 first_mismatch=none",
    "SUMMARY total=1 mismatches=0",
]


def _value(rng) -> str:
    if rng.random() < 0.3:
        return rng.choice(_ODD_VALUES)
    base = rng.choice("bodh")
    alphabet = _BASE_DIGITS[base] * 3 + "xz?_" + ("9fFA" if rng.random() < 0.2 else "")
    digits = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
    if not digits.strip("_"):
        digits += "1"
    if rng.random() < 0.2:
        digits = digits.upper()
    width = "" if rng.random() < 0.2 else str(rng.randint(0, 24))
    return f"{width}'{rng.choice(['', 's'])}{rng.choice([base, base.upper()])}{digits}"


def _section(rng, allow_empty: bool) -> str:
    names = [rng.choice(_NAMES) for _ in range(rng.randint(0 if allow_empty else 1, 4))]
    chunks = [f"{name}={_value(rng)}" for name in names]
    if chunks and rng.random() < 0.06:
        chunks.insert(rng.randint(0, len(chunks)), rng.choice(["", "noeq", "=1"]))
    return ",".join(chunks)


def _check_line(rng, t: int) -> str:
    dut = _section(rng, allow_empty=False)
    if rng.random() < 0.1:
        exp = _section(rng, allow_empty=False)  # likely another signal set
    elif rng.random() < 0.5:
        exp = dut  # matches unless a value is x/z
    else:
        names = [chunk.partition("=")[0] for chunk in dut.split(",")]
        exp = ",".join(f"{name}={_value(rng)}" if name else "" for name in names)
    status = rng.choice(["MATCH", "MISMATCH"])  # may lie
    lead = rng.choice(["", "", "  ", "\t"])
    return f"{lead}CHECK time={t} in:{_section(rng, allow_empty=True)} dut:{dut} exp:{exp} status={status}"


def random_stimulus(rng) -> list[tuple[int, str]]:
    """(ordinal, CHECK line) pairs that one testbench epoch's candidates
    share; ordinals increase, lines may still break the protocol."""
    checks = []
    t = rng.randint(0, 3)
    for _ in range(rng.randint(1, 12)):
        checks.append((t, _check_line(rng, t)))
        t += rng.choice([1, 1, 1, 2, 5])
    return checks


def random_trace(rng, stimulus: Optional[list[tuple[int, str]]] = None) -> str:
    """A random trace; with ``stimulus``, one candidate's run of it: most
    lines repeat the stimulus's, the rest are drawn afresh at its ordinals."""
    lines = []
    if stimulus is None:
        t = rng.randint(0, 3)
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.1:
                lines.append(rng.choice(_NOISE))
                continue
            lines.append(_check_line(rng, t))
            t = max(t + rng.choice([1, 1, 1, 2, 5, 0, -1]), 0)  # 0/-1 break the order
    else:
        for t, line in stimulus:
            if rng.random() < 0.1:
                lines.append(rng.choice(_NOISE))
            lines.append(line if rng.random() < 0.8 else _check_line(rng, t))
    body = "\n".join(lines)
    mode = rng.choice(["none", "true", "true", "true", "total", "mismatches", "first", "noise"])
    if mode == "none":
        return body
    if mode == "noise":
        return body + "\n" + rng.choice(_NOISE)
    try:
        records, total, mismatches = frozen_parse_trace(body)
        first = next((r[0] for r in records if not r[4]), None)
    except TraceError:
        total, mismatches, first = len(lines), 0, None
    if mode == "total":
        total += rng.choice([-1, 1])
    elif mode == "mismatches":
        mismatches += 1
    elif mode == "first":
        first = 0 if first is None else None
    first_s = "none" if first is None else first
    summary = f"SUMMARY total={total} mismatches={mismatches} first_mismatch={first_s}"
    return rng.choice(["\n", "\r\n"]).join([body, summary]) + rng.choice(["", "\n"])


def _outcome(parse, *args):
    try:
        return ("ok", parse(*args))
    except Exception as exc:  # the exception type and message are the result
        return ("raised", type(exc), str(exc))


def assert_equals_frozen(stdout, memo=None):
    """``parse_trace`` (through ``memo``) gives what the frozen parser gives."""
    expected = _outcome(frozen_parse_trace, stdout)
    actual = _outcome(parse_trace, *([stdout] if memo is None else [stdout, memo]))
    if expected[0] == "raised" or actual[0] == "raised":
        assert actual == expected
        return expected[0]
    records, total, mismatches = expected[1]
    trace = actual[1]
    assert trace.total_checks == total
    assert trace.mismatches == mismatches
    assert [
        (r.t, list(r.inputs.items()), list(r.dut_outputs.items()),
         list(r.expected_outputs.items()), r.matched)
        for r in trace.records
    ] == [
        (t, list(i.items()), list(d.items()), list(e.items()), ok)
        for t, i, d, e, ok in records
    ]
    return "ok"


def shared_stimulus_traces(seed: int, count: int) -> list[str]:
    """``count`` traces drawn from four shared stimuli, as an epoch's are."""
    rng = random.Random(seed)
    stimuli = [random_stimulus(rng) for _ in range(4)]
    return [random_trace(rng, rng.choice(stimuli)) for _ in range(count)]


def _check_lines(stdout) -> int:
    return sum(1 for line in stdout.splitlines() if "CHECK time=" in line)


class TestParserEquivalence:
    @settings(max_examples=2000, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_parse_trace_equals_frozen_parser(self, seed):
        assert_equals_frozen(random_trace(random.Random(seed)))

    def test_shared_memo_equals_frozen_parser(self):
        # One memo across all 2000 traces, as one testbench epoch shares it:
        # a deterministic loop, because the memo outlives each example.
        traces = shared_stimulus_traces(seed=8, count=2000)
        memo = {}
        outcomes = Counter(assert_equals_frozen(stdout, memo) for stdout in traces)
        assert outcomes["ok"] >= 200 and outcomes["raised"] >= 200, outcomes
        # Most lines were answered from the memo, so the test exercises it.
        assert len(memo) < 0.4 * sum(map(_check_lines, traces))

    def test_threads_sharing_a_memo_get_equal_traces(self):
        traces = shared_stimulus_traces(seed=9, count=300)
        expected = [_outcome(parse_trace, stdout) for stdout in traces]
        memo = {}
        results = {}

        def parse_all(worker):
            order = random.Random(worker).sample(range(len(traces)), len(traces))
            results[worker] = {i: _outcome(parse_trace, traces[i], memo) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=parse_all, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        for got in results.values():
            assert [got[i] for i in range(len(traces))] == expected

    def test_generator_reaches_every_outcome(self):
        # The equivalence test means little unless its traces parse, and
        # fail in each way, often enough.
        rng = random.Random(5)
        seen = Counter()
        for _ in range(2000):
            outcome = _outcome(frozen_parse_trace, random_trace(rng))
            if outcome[0] == "ok":
                seen["ok-mismatch" if outcome[1][2] else "ok-clean"] += 1
            else:
                seen[outcome[1].__name__ + ":" + outcome[2].split(" ")[0]] += 1
        for kind in (
            "ok-clean", "ok-mismatch", "NoChecksFound:no", "SummaryMismatch:SUMMARY",
            "TraceError:malformed", "TraceError:line", "TraceError:check",
        ):
            assert seen[kind] >= 20, (kind, seen)
