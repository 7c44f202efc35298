"""Marker logic of the stub Verilog toolchain (standard library only).

The generated ``stub-iverilog``/``stub-vvp`` scripts import only this module,
so a launch costs interpreter start-up and not the import of ``rtlforge``.
``toolstub`` builds its in-process stubs on the same helpers. The marker
language is described in ``toolstub``.
"""

import re
import sys
import time
from pathlib import Path

_BEHAVIOR_RE = re.compile(r"//DUT_BEHAVIOR:(\S+)")
_ERR_RE = re.compile(r"//ERR:(\d+):(.*)")


def synth_score_trace(mismatches: int, total: int) -> str:
    """Trace with the given counts; mismatching checks at the tail."""
    lines = []
    for t in range(total):
        ok = t < total - mismatches
        dut = "1" if ok else "0"
        status = "MATCH" if ok else "MISMATCH"
        lines.append(f"CHECK time={t} in:x=0 dut:y={dut} exp:y=1 status={status}")
    first = "none" if mismatches == 0 else str(total - mismatches)
    lines.append(f"SUMMARY total={total} mismatches={mismatches} first_mismatch={first}")
    return "\n".join(lines) + "\n"


def synth_counter_trace(glitch_at: int | None = None) -> str:
    """16-check 4-bit counter trace; optional single wrong output value."""
    lines = []
    mismatches = 0
    first = None
    for t in range(16):
        expected = t
        got = expected
        if glitch_at is not None and t == glitch_at:
            got = expected ^ 0x1
        ok = got == expected
        if not ok:
            mismatches += 1
            first = t if first is None else first
        rst = 1 if t == 0 else 0
        status = "MATCH" if ok else "MISMATCH"
        lines.append(
            f"CHECK time={t} in:rst={rst} dut:q=4'b{got:04b} exp:q=4'b{expected:04b} "
            f"status={status}"
        )
    lines.append(
        f"SUMMARY total=16 mismatches={mismatches} "
        f"first_mismatch={'none' if first is None else first}"
    )
    return "\n".join(lines) + "\n"


def behavior_of(text: str) -> str:
    m = _BEHAVIOR_RE.search(text)
    return m.group(1) if m else "score:0:16"


def emitted_lines(text: str, key: str) -> list[str]:
    prefix = f"//TB_EMIT:{key}|"
    return [
        line.strip()[len(prefix):]
        for line in text.splitlines()
        if line.strip().startswith(prefix)
    ]


def stdout_for(all_text: str, key: str) -> str:
    """Resolve the stdout a simulation of this artifact should produce."""
    canned = emitted_lines(all_text, key)
    if canned:
        return "\n".join(canned) + "\n"
    if key.startswith("score:"):
        _, m, tc = key.split(":")
        return synth_score_trace(int(m), int(tc))
    if key == "counter16":
        return synth_counter_trace()
    if key.startswith("counter16:glitch@"):
        return synth_counter_trace(glitch_at=int(key.rsplit("@", 1)[1]))
    if key == "nochecks":
        return "simulation banner, nothing else\n"
    if key == "badsummary":
        return (
            "CHECK time=0 in:x=0 dut:y=1 exp:y=1 status=MATCH\n"
            "SUMMARY total=5 mismatches=2 first_mismatch=0\n"
        )
    raise ValueError(f"stub toolchain: unknown behavior key {key!r}")


def error_markers(text: str) -> list[tuple[int, str]]:
    """(line, message) of every ``//ERR`` marker in ``text``."""
    return [(int(m.group(1)), m.group(2).strip() or "error") for m in _ERR_RE.finditer(text)]


def subprocess_compiler_main() -> int:
    args = sys.argv[1:]
    out = None
    files = []
    i = 0
    while i < len(args):
        if args[i] == "-o":
            out = args[i + 1]
            i += 2
            continue
        if args[i].startswith("-"):
            i += 1
            continue
        files.append(args[i])
        i += 1
    if out is None or not files:
        sys.stderr.write("usage: stub-iverilog -o OUT files...\n")
        return 64
    chunks = []
    failed = False
    for name in files:
        try:
            text = Path(name).read_text(encoding="utf-8")
        except OSError as exc:
            sys.stderr.write(f"{name}: cannot open: {exc}\n")
            failed = True
            continue
        chunks.append(f"// FILE:{name}\n{text}")
        for line, message in error_markers(text):
            sys.stderr.write(f"{name}:{line}: {message}\n")
            failed = True
    if failed:
        sys.stderr.write("I give up.\n")
        return 1
    Path(out).write_text("\n".join(chunks), encoding="utf-8")
    return 0


def subprocess_vvp_main() -> int:
    artifact = sys.argv[1]
    text = Path(artifact).read_text(encoding="utf-8")
    key = behavior_of(text)
    if key == "hang":
        time.sleep(600)
        return 0
    if key == "flood":
        while True:
            sys.stdout.write("CHECK time=0 in:a=0 dut:y=0 exp:y=0 status=MATCH\n")
    if key == "crash":
        sys.stderr.write("vvp: fatal interaction\n")
        return 2
    try:
        sys.stdout.write(stdout_for(text, key))
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return 3
    return 0
