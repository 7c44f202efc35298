"""Benchmark-owned stub Verilog toolchain (standard library only).

The same functions back two forms of the toolchain:

* executable scripts for ``iverilog``/``vvp`` (``write_scripts``), launched by
  ``rtlforge.simbridge`` as real subprocesses. They run under
  ``sys.executable -IS`` and import only this file, so a launch costs
  interpreter start-up and not the import of ``rtlforge``. Each launch appends
  one byte to a counter file, so the scripts count themselves;
* an in-process twin (``harness.InProcessToolchain``) that calls
  ``compile_files`` and ``simulate_artifact`` directly.

Both produce byte-identical compiler stderr and simulator stdout, so one
recording made with the twin replays through the scripts.

Marker language, one marker per line comment:

  // BENCH-STIM seed=<s> checks=<n> ins=<i> outs=<k>   (engine testbench)
  // BENCH-GOLDEN checks=<g>                           (golden testbench)
  // BENCH-FAULTS <t>,<t>,... | none                   (DUT: wrong check ordinals)
  // BENCH-ERR <message>                               (compile error at this line)

The simulated trace follows the checkpoint log grammar of
``rtlforge.checkpoints``: sized hex and binary literals, ``?`` don't-care
bits in expected values and ``x`` bits in DUT values.
"""

import os
import random
import sys

_OUT_WIDTHS = (8, 4, 16, 1, 12, 2)


def source_names(kinds):
    """Workdir file names for sources of these kinds, as simbridge names them."""
    counts = {}
    names = []
    for kind in kinds:
        base = "dut" if kind == "dut" else "tb"
        n = counts.get(base, 0)
        counts[base] = n + 1
        names.append(f"{base}.v" if n == 0 else f"{base}{n}.v")
    return names


def compile_files(files):
    """Compile ``[(name, text), ...]``; returns ``(ok, stderr, artifact_text)``."""
    errors = []
    for name, text in files:
        if "BENCH-ERR" not in text:
            continue
        for line_no, line in enumerate(text.split("\n"), start=1):
            at = line.find("// BENCH-ERR ")
            if at >= 0:
                errors.append(f"{name}:{line_no}: syntax error: {line[at + 13:].strip()}\n")
    if errors:
        return False, "".join(errors), ""
    return True, "", "\n".join(f"// FILE:{name}\n{text}" for name, text in files)


def _marker(text, tag):
    at = text.find(tag)
    if at < 0:
        return None
    end = text.find("\n", at)
    return text[at + len(tag):end if end >= 0 else len(text)].strip()


def _fields(marker):
    return {k: int(v) for k, v in (item.split("=") for item in marker.split())}


def faults_of(text):
    """Check ordinals at which the DUT in ``text`` is wrong."""
    marker = _marker(text, "// BENCH-FAULTS ")
    if not marker or marker == "none":
        return ()
    return tuple(int(t) for t in marker.split(","))


def _literal(width, value, low_dont_care=False):
    """Sized hex (widths of 8 or more bits, in whole digits) or binary literal.

    ``low_dont_care`` prints the lowest digit as ``?``.
    """
    if width >= 8 and width % 4 == 0:
        base, digits = "h", format(value, f"0{width // 4}x")
    else:
        base, digits = "b", format(value, f"0{width}b")
    if low_dont_care:
        digits = digits[:-1] + "?"
    return f"{width}'{base}{digits}"


def render_trace(stim, faults):
    """Simulator stdout for the ``BENCH-STIM`` parameters and a DUT wrong at ``faults``."""
    params = _fields(stim)
    rng = random.Random(params["seed"])
    n_in, n_out, checks = params["ins"], params["outs"], params["checks"]
    widths = [_OUT_WIDTHS[j % len(_OUT_WIDTHS)] for j in range(n_out)]
    wrong_at = set(faults)
    lines = []
    for t in range(checks):
        ins = ",".join(f"i{j}={_literal(8, rng.getrandbits(8))}" for j in range(n_in))
        exp, dut = [], []
        for j, w in enumerate(widths):
            value = rng.getrandbits(w)
            # Every fifth check leaves the lowest digit don't-care; the DUT
            # drives it as x there, which still matches.
            exp_text = _literal(w, value, low_dont_care=t % 5 == 0 and w > 1)
            dut_text = exp_text.replace("?", "x")
            if t in wrong_at and j == t % n_out:
                if t % 2:
                    # A flipped cared-about bit.
                    dut_text = _literal(w, value ^ (1 << (w - 1)))
                else:
                    # An unknown where a value is expected: the top digit.
                    top = dut_text.index("'") + 2
                    dut_text = dut_text[:top] + "x" + dut_text[top + 1 :]
            exp.append(f"o{j}={exp_text}")
            dut.append(f"o{j}={dut_text}")
        status = "MISMATCH" if t in wrong_at else "MATCH"
        lines.append(
            f"CHECK time={t} in:{ins} dut:{','.join(dut)} exp:{','.join(exp)} status={status}"
        )
    hits = sorted(t for t in wrong_at if t < checks)
    first = str(hits[0]) if hits else "none"
    lines.append(f"SUMMARY total={checks} mismatches={len(hits)} first_mismatch={first}")
    return "\n".join(lines) + "\n"


def simulate_artifact(text):
    """Run a compiled artifact; returns ``(exit_code, stdout, stderr)``."""
    faults = faults_of(text)
    golden = _marker(text, "// BENCH-GOLDEN ")
    if golden is not None:
        checks = _fields(golden)["checks"]
        errors = sum(1 for t in faults if t < checks)
        return 0, f"Mismatches: {errors} in {checks} samples\n", ""
    stim = _marker(text, "// BENCH-STIM ")
    if stim is None:
        return 0, "stub simulator: no checkpoint stimulus\n", ""
    return 0, render_trace(stim, faults), ""


# ---------------------------------------------------------------------------
# Subprocess entry points


def _count(counter_path):
    fd = os.open(counter_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, b"1")
    finally:
        os.close(fd)


def _read(name):
    with open(name, encoding="utf-8") as fh:
        return fh.read()


def compiler_main(argv, counter_path):
    _count(counter_path)
    out, files, i = None, [], 0
    while i < len(argv):
        if argv[i] == "-o":
            out = argv[i + 1]
            i += 2
        elif argv[i].startswith("-"):
            i += 1
        else:
            files.append(argv[i])
            i += 1
    if out is None or not files:
        sys.stderr.write("usage: stub-iverilog -o OUT files...\n")
        return 64
    ok, stderr, artifact = compile_files([(name, _read(name)) for name in files])
    if not ok:
        sys.stderr.write(stderr)
        return 1
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(artifact)
    return 0


def vvp_main(argv, counter_path):
    _count(counter_path)
    code, stdout, stderr = simulate_artifact(_read(argv[0]))
    sys.stdout.write(stdout)
    sys.stderr.write(stderr)
    return code


_SCRIPT = """#!{python} -IS
import sys
sys.path.insert(0, {here!r})
import stubtool
sys.exit(stubtool.{entry}(sys.argv[1:], {counter!r}))
"""


def write_scripts(bindir):
    """Write executable compiler and simulator scripts into ``bindir``.

    Returns ``(compiler, vvp, compiler_counter, vvp_counter)`` as absolute
    paths; each counter file grows by one byte per launch.
    """
    bindir = os.path.abspath(bindir)
    os.makedirs(bindir, exist_ok=True)
    here = os.path.dirname(os.path.abspath(__file__))
    paths = []
    for name, entry in (("stub-iverilog", "compiler_main"), ("stub-vvp", "vvp_main")):
        script = os.path.join(bindir, name)
        counter = script + ".launches"
        with open(counter, "wb"):
            pass
        with open(script, "w", encoding="utf-8") as fh:
            fh.write(_SCRIPT.format(python=sys.executable, here=here, entry=entry, counter=counter))
        os.chmod(script, 0o755)
        paths.append((script, counter))
    (compiler, compiler_counter), (vvp, vvp_counter) = paths
    return compiler, vvp, compiler_counter, vvp_counter


def launches(counter_path):
    return os.path.getsize(counter_path)
