"""Count the code lines of the z2memory package, docstrings and comments
skipped, by the standard library's tokenizer.

A line counts when some token on it is code: not a comment, not a blank
or continuation line, and not a docstring (a string that is a statement
of its own).  A token spanning several lines, such as a multi-line string
inside an expression, counts each of them.

    python tools/code_lines.py [PACKAGE_DIR]

prints one line per module and the total, for src/z2memory by default.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "z2memory"
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
# Tokens after which a string starts a statement of its own.
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    with tokenize.open(path) as fh:
        tokens = [t for t in tokenize.generate_tokens(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    rows: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue  # a docstring
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:24s}{count:6d}")
    print(f"{'total':24s}{total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
