"""Count the code lines of each ``src/rtlforge/*.py`` and their total.

    python3 tools/code_lines.py [--base ROOT]

With ``--base``, each row holds the count in the checkout at ROOT (say, a
``git archive`` tree of the parent commit), the count here and the delta; a
file missing from one side counts 0 there.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT, unless that token belongs to a string standing alone as a
statement (a docstring). A token spanning several lines counts each of them.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rtlforge"
_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    """Number of code lines in Python source ``text``."""
    rows: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _SKIPPED:
            statement.append(token)
        elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    rows.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(rows)


def counts(src: Path) -> dict[str, int]:
    """Code lines of each ``*.py`` directly under ``src``, by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="another checkout's root to compare with")
    args = parser.parse_args(argv)
    after = counts(SRC)
    if args.base is None:
        for name in sorted(after):
            print(f"{after[name]:6d}  {name}")
        print(f"{sum(after.values()):6d}  total")
        return 0
    base_src = args.base / "src" / "rtlforge"
    if not base_src.is_dir():
        parser.error(f"no src/rtlforge under {args.base}")
    before = counts(base_src)
    rows = [(name, before.get(name, 0), after.get(name, 0)) for name in sorted({*before, *after})]
    rows.append(("total", sum(before.values()), sum(after.values())))
    print(f"{'before':>6}  {'after':>6}  {'delta':>6}  file")
    for name, old, new in rows:
        print(f"{old:6d}  {new:6d}  {new - old:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
