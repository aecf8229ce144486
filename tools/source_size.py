"""Print the size of the source and the tests, file by file and in total.

    python3 tools/source_size.py [ROOT]

A file's size is its non-blank lines whose first non-blank character is
not `#`; docstrings count.  This is `grep -cvE '^\\s*(#|$)'`, the count the
ROADMAP quotes.  ROOT (default: the current directory) is a checkout; the
files are the *.py under its src/ and tests/, each tree with its total.
"""

from __future__ import annotations

import sys
from pathlib import Path

TREES = ("src", "tests")


def size(path: Path) -> int:
    """Non-blank lines of `path` that do not start with `#` after indentation."""
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python3 tools/source_size.py [ROOT]", file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else ".")
    for tree in TREES:
        files = sorted((root / tree).rglob("*.py"))
        width = max((len(str(f.relative_to(root))) for f in files), default=0)
        total = 0
        for f in files:
            n = size(f)
            total += n
            print(f"{str(f.relative_to(root)):<{width}}  {n:5d}")
        print(f"{tree + ' total':<{width}}  {total:5d}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
