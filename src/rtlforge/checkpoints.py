"""Textual state-checkpoint protocol: log grammar, parser, scoring, windows.

Generated testbenches log one machine-readable line per check event and a
single trailing summary. The grammar is bit-exact and normative for both the
testbench-generation prompt and this parser:

    CHECK time=<t> in:<name>=<val>[,<name>=<val>...] dut:<name>=<val>[,...] \
exp:<name>=<val>[,...] status=<MATCH|MISMATCH>
    SUMMARY total=<tc> mismatches=<m> first_mismatch=<t|none>

``<t>`` is a check-event ordinal (clock edge for sequential designs, stimulus
vector for combinational ones). Values are Verilog literal texts such as
``1``, ``0``, ``4'b0101``, ``8'hff``, ``x``, ``z``; they never contain spaces
or commas. A ``?`` bit in an expected value marks that bit as don't-care.

A record counts as matched when every output signal's DUT value equals its
expected value, where any ``x`` or ``z`` bit in a DUT output is a mismatch
unless the expected value marks that bit ``?``. Lines not matching the
grammar are ignored; a SUMMARY line, when present, is cross-validated against
the parsed records and any disagreement flags the testbench as buggy.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import EngineError

DEFAULT_WINDOW_LEN = 8


class TraceError(EngineError):
    """Simulation output violates the checkpoint protocol."""


class NoChecksFound(TraceError):
    """Zero CHECK lines: the testbench emitted no checkpoints."""


class SummaryMismatch(TraceError):
    """SUMMARY line disagrees with the parsed CHECK records."""


class EmptyTrace(EngineError):
    """Scoring requires at least one check."""


class NotAMismatch(EngineError):
    """Window anchor is not a mismatched record present in the trace."""


# One pattern for both line kinds: CHECK fills groups 1-4, SUMMARY 5-7.
_LINE_RE = re.compile(
    r"^\s*(?:CHECK time=(\d+) in:(\S*) dut:(\S+) exp:(\S+) status=(?:MATCH|MISMATCH)"
    r"|SUMMARY total=(\d+) mismatches=(\d+) first_mismatch=(\d+|none))\s*$"
)


# ---------------------------------------------------------------------------
# Value comparison

_LITERAL_RE = re.compile(r"^(\d+)?'[sS]?([bBdDhHoO])([0-9a-fA-FxXzZ?_]+)$")
_BIT_TEXT_RE = re.compile(r"[01xXzZ?]+")
_XZ_RE = re.compile(r"[xzXZ]")
# int() of an ASCII digit string this short never raises, whatever
# sys.set_int_max_str_digits sets.
_SAFE_DIGITS = sys.int_info.str_digits_check_threshold
# Widest declared literal width decoded to bits: the minimum vector width
# IEEE 1364/1800 require every tool to support. A wider one is not a literal.
MAX_LITERAL_WIDTH = 1 << 16
# Decimal digits of the largest MAX_LITERAL_WIDTH-bit value; a longer decimal
# is not decoded, and compares as text.
_MAX_DECIMAL_DIGITS = math.floor(MAX_LITERAL_WIDTH * math.log10(2)) + 1


def _plain(text: str) -> bool:
    """True for ASCII text without x/z, shorter than ``int()``'s digit limit.

    ``value_bits`` raises no ValueError on such a text, and under the bit
    rule it matches an identical expected text.
    """
    return text.isascii() and len(text) < _SAFE_DIGITS and not _XZ_RE.search(text)


def _digit_table(bits_per_digit: int) -> tuple[frozenset, dict]:
    """Allowed digits of a base and the ``str.translate`` table to its bits."""
    bits = {
        format(i, "x"): format(i, f"0{bits_per_digit}b") for i in range(1 << bits_per_digit)
    }
    bits.update({c: c * bits_per_digit for c in "xz?"})
    return frozenset(bits), str.maketrans(bits)


_DIGIT_TABLES = {"b": _digit_table(1), "o": _digit_table(3), "h": _digit_table(4)}


def _decimal_bits(digits: str) -> Optional[str]:
    """Bits of a decimal digit string, decoded in chunks ``int()`` never
    refuses for their length; None above ``_MAX_DECIMAL_DIGITS`` significant
    digits."""
    if len(digits.lstrip("0")) > _MAX_DECIMAL_DIGITS:
        return None
    value = 0
    for i in range(0, len(digits), _SAFE_DIGITS):
        chunk = digits[i : i + _SAFE_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return format(value, "b")


@functools.lru_cache(maxsize=4096)
def value_bits(text: str) -> Optional[str]:
    """Normalize a Verilog value literal to a bit string (msb first).

    Returns characters in ``01xz?`` or None when the text is not a
    recognizable literal (comparison then falls back to exact text equality).
    A declared width above ``MAX_LITERAL_WIDTH`` bits, or a decimal longer
    than such a value, is not a literal. Results are memoised per text in a bounded cache.
    """
    text = text.strip()
    if not text:
        return None
    if _BIT_TEXT_RE.fullmatch(text):
        return text.lower()
    if text.isascii() and text.isdigit():
        return _decimal_bits(text)
    m = _LITERAL_RE.match(text)
    if m is None:
        return None
    width_s, base, digits = m.groups()
    digits = digits.replace("_", "").lower()
    base = base.lower()
    if not digits:
        return None
    if base == "d":
        bits = _decimal_bits(digits) if digits.isascii() and digits.isdigit() else None
        if bits is None:
            return None
    else:
        allowed, table = _DIGIT_TABLES[base]
        if not allowed.issuperset(digits):
            return None
        bits = digits.translate(table)
    if width_s:
        width_s = width_s.lstrip("0")
        # A width this long is above the bound; int() of it could raise.
        if len(width_s) > len(str(MAX_LITERAL_WIDTH)):
            return None
        width = int(width_s or "0")
        if not 0 < width <= MAX_LITERAL_WIDTH:
            return None
        if len(bits) < width:
            pad = bits[0] if bits[0] in "xz?" else "0"
            bits = pad * (width - len(bits)) + bits
        elif len(bits) > width:
            bits = bits[-width:]
    return bits


def _bits(text: str) -> Optional[str]:
    """``value_bits``, bypassing its cache for a text longer than
    ``_SAFE_DIGITS``: no entry cached from here exceeds ``MAX_LITERAL_WIDTH``
    bits, whatever length of text a trace carries."""
    return value_bits(text) if len(text) <= _SAFE_DIGITS else value_bits.__wrapped__(text)


def values_match(dut_text: str, expected_text: str) -> bool:
    """Compare one DUT output value against its expected value.

    Bit rule: an expected ``?`` bit always matches; a DUT ``x``/``z`` bit
    never matches otherwise; remaining bits compare literally. Unparseable
    values fall back to exact text equality (still rejecting x/z in the DUT
    text). Identical texts without ``x``/``z`` therefore always match, and
    are answered without comparing bits.
    """
    if dut_text == expected_text and _plain(dut_text):
        return True
    dut_bits = _bits(dut_text)
    exp_bits = _bits(expected_text)
    if dut_bits is None or exp_bits is None:
        return dut_text == expected_text and not _XZ_RE.search(dut_text)
    width = max(len(dut_bits), len(exp_bits))
    for d, e in zip(dut_bits.rjust(width, "0"), exp_bits.rjust(width, "0")):
        if e != "?" and (d in "xz" or d != e):
            return False
    return True


# ---------------------------------------------------------------------------
# Trace model


@dataclass(frozen=True, slots=True)
class CheckRecord:
    """One check event: inputs, observed outputs, expected outputs.

    ``matched`` is derived, never trusted from the log: it is true iff every
    output signal's DUT value equals its expected value under values_match.
    """

    t: int
    inputs: dict[str, str]
    dut_outputs: dict[str, str]
    expected_outputs: dict[str, str]
    matched: bool = field(init=False)

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("check ordinal must be >= 0")
        if set(self.dut_outputs) != set(self.expected_outputs):
            raise ValueError(
                f"dut/exp signal sets differ at t={self.t}: "
                f"{sorted(self.dut_outputs)} vs {sorted(self.expected_outputs)}"
            )
        if not self.dut_outputs:
            raise ValueError(f"record at t={self.t} has no output signals")
        ok = all(
            values_match(self.dut_outputs[name], self.expected_outputs[name])
            for name in self.dut_outputs
        )
        object.__setattr__(self, "matched", ok)


@dataclass(frozen=True)
class CheckTrace:
    records: tuple[CheckRecord, ...]
    total_checks: int
    mismatches: int

    @classmethod
    def from_records(cls, records) -> "CheckTrace":
        records = tuple(records)
        for prev, cur in zip(records, records[1:]):
            if cur.t <= prev.t:
                raise ValueError(f"check ordinals must strictly increase: {prev.t} -> {cur.t}")
        return cls(
            records=records,
            total_checks=len(records),
            mismatches=sum(1 for r in records if not r.matched),
        )


@dataclass(frozen=True)
class WaveWindow:
    """Checkpoint records covering [max(anchor - window_len, 0), anchor]."""

    anchor_t: int
    window_len: int
    records: tuple[CheckRecord, ...]


@dataclass(frozen=True)
class Score:
    """Normalized mismatch score in [0, 1]; 0 for a candidate that did not simulate."""

    value: float

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError("score must lie in [0, 1]")


# ---------------------------------------------------------------------------
# Operations


def _parse_pairs(section: str, line_no: int) -> dict[str, str]:
    pairs: dict[str, str] = {}
    if not section:
        return pairs
    for chunk in section.split(","):
        name, sep, value = chunk.partition("=")
        if not sep or not name:
            raise TraceError(f"malformed signal pair {chunk!r} on line {line_no}")
        pairs[name] = value
    return pairs


def _record(t: int, inputs: dict, dut: dict, exp: dict, matched: bool) -> CheckRecord:
    """A CheckRecord whose checks ``parse_trace`` has already made."""
    record = object.__new__(CheckRecord)
    object.__setattr__(record, "t", t)
    object.__setattr__(record, "inputs", inputs)
    object.__setattr__(record, "dut_outputs", dut)
    object.__setattr__(record, "expected_outputs", exp)
    object.__setattr__(record, "matched", matched)
    return record


def parse_trace(stdout: str, lines: Optional[dict[str, CheckRecord]] = None) -> CheckTrace:
    """Parse simulation stdout into a CheckTrace.

    Lines matching the CHECK grammar become records in order; everything else
    is ignored. The last SUMMARY line, if any, is cross-validated against the
    parsed records (total, mismatch count, and first mismatch ordinal).

    A CHECK line whose dut and exp sections are the same text without x/z
    matches on every output, so its record skips ``CheckRecord``'s checks:
    its signal sets are equal and non-empty.

    ``lines`` memoises records by the raw text of their CHECK line: a line
    found there is not parsed again, and a line that parses cleanly is
    stored, so traces parsed through one memo share their records, which
    must not be mutated. A failing line is never stored and raises with its
    own line number every time. Threads may share a memo; a race between
    them only parses a line twice.
    """
    records: list[CheckRecord] = []
    summary: Optional[tuple[int, int, Optional[int]]] = None
    for line_no, line in enumerate(stdout.splitlines(), start=1):
        record = None if lines is None else lines.get(line)
        if record is None:
            m = _LINE_RE.match(line)
            if m is None:
                continue
            t_s, in_s, dut_s, exp_s, total_s, mism_s, first_s = m.groups()
            try:
                if t_s is None:
                    summary = (
                        int(total_s), int(mism_s), None if first_s == "none" else int(first_s)
                    )
                    continue
                t = int(t_s)
                inputs = _parse_pairs(in_s, line_no)
                dut = _parse_pairs(dut_s, line_no)
                if exp_s == dut_s and _plain(dut_s):
                    record = _record(t, inputs, dut, dict(dut), True)
                else:
                    record = CheckRecord(t, inputs, dut, _parse_pairs(exp_s, line_no))
            except ValueError as exc:
                raise TraceError(f"line {line_no}: {exc}") from exc
            if lines is not None:
                lines[line] = record
        records.append(record)
    if not records:
        raise NoChecksFound("no CHECK lines found in simulation output")
    try:
        trace = CheckTrace.from_records(records)
    except ValueError as exc:
        raise TraceError(str(exc)) from exc
    if summary is not None:
        total, mismatches, first = summary
        computed_first = earliest_mismatch(trace)
        if total != trace.total_checks:
            raise SummaryMismatch(
                f"SUMMARY total={total} but {trace.total_checks} CHECK lines parsed"
            )
        if mismatches != trace.mismatches:
            raise SummaryMismatch(
                f"SUMMARY mismatches={mismatches} but {trace.mismatches} computed from records"
            )
        if first != computed_first:
            raise SummaryMismatch(
                f"SUMMARY first_mismatch={first} but records give {computed_first}"
            )
    return trace


def score(trace: CheckTrace) -> Score:
    """Normalized mismatch score: 1 - mismatches/total_checks, exact rational."""
    if trace.total_checks < 1:
        raise EmptyTrace("cannot score a trace with zero checks")
    value = 1 - Fraction(trace.mismatches, trace.total_checks)
    return Score(float(value))


def earliest_mismatch(trace: CheckTrace) -> Optional[int]:
    """Smallest check ordinal with a mismatch, or None when all matched."""
    for record in trace.records:
        if not record.matched:
            return record.t
    return None


def extract_window(trace: CheckTrace, anchor_t: int, window_len: int) -> WaveWindow:
    """Records with ordinal in the closed interval [max(anchor-len, 0), anchor].

    The anchor must be a mismatched record present in the trace.
    """
    if window_len < 1:
        raise ValueError("window_len must be >= 1")
    anchor = next((r for r in trace.records if r.t == anchor_t), None)
    if anchor is None or anchor.matched:
        raise NotAMismatch(f"t={anchor_t} is not a mismatch point in this trace")
    lo = max(anchor_t - window_len, 0)
    selected = tuple(r for r in trace.records if lo <= r.t <= anchor_t)
    return WaveWindow(anchor_t=anchor_t, window_len=window_len, records=selected)


def render_window(window: WaveWindow) -> str:
    """Deterministic columnar text for a window; prompt-ready.

    One row per check event; columns are the ordinal, each input, then each
    output as a dut/exp pair, then the match marker. Signal names are sorted,
    inputs before outputs; the final row is flagged as the first mismatch.
    """
    input_names = sorted({name for r in window.records for name in r.inputs})
    output_names = sorted({name for r in window.records for name in r.dut_outputs})
    header = ["t"]
    header += input_names
    for name in output_names:
        header += [f"{name}:dut", f"{name}:exp"]
    header.append("status")

    rows = [header]
    for r in window.records:
        row = [str(r.t)]
        row += [r.inputs.get(name, "-") for name in input_names]
        for name in output_names:
            row += [r.dut_outputs.get(name, "-"), r.expected_outputs.get(name, "-")]
        row.append("MATCH" if r.matched else "MISMATCH")
        rows.append(row)

    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(rows):
        line = "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        if idx == len(rows) - 1 and idx > 0:
            line += "  <-- first mismatch"
        lines.append(line)
    return "\n".join(lines)


def render_excerpt(trace: CheckTrace, window_len: int = DEFAULT_WINDOW_LEN) -> str:
    """The rendered window at the trace's first mismatch; raises
    NotAMismatch when every check matched."""
    return render_window(extract_window(trace, earliest_mismatch(trace), window_len))
