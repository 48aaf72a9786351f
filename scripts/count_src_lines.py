#!/usr/bin/env python3
"""Count the non-blank, non-comment lines of the C++ sources in a tree.

Usage: count_src_lines.py [dir]   (default: src/ beside this script)

Strips /* ... */ and // comments from every *.hh and *.cc file under
the directory, then counts the lines that are not blank.  Comment
markers inside string and character literals are left alone.  Prints
the total, the yardstick the ROADMAP and CHANGES.md use for the size
of src/.
"""

import os
import re
import sys

# One token per match: a literal (kept), a comment (dropped) or any
# other character (kept).
TOKEN = re.compile(
    r'"(?:\\.|[^"\\\n])*"'      # string literal
    r"|'(?:\\.|[^'\\\n])*'"     # character literal
    r"|/\*.*?\*/"               # block comment
    r"|//[^\n]*"                # line comment
    r"|.",
    re.S)


def strip_comments(text):
    def keep(m):
        tok = m.group(0)
        if tok.startswith("/*"):
            return "\n" * tok.count("\n")
        if tok.startswith("//"):
            return ""
        return tok
    return TOKEN.sub(keep, text)


def count_lines(root):
    total = 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            if not name.endswith((".hh", ".cc")):
                continue
            with open(os.path.join(dirpath, name)) as f:
                text = strip_comments(f.read())
            total += sum(1 for line in text.splitlines() if line.strip())
    return total


def main():
    if len(sys.argv) > 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    root = sys.argv[1] if len(sys.argv) == 2 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src")
    print(count_lines(root))


if __name__ == "__main__":
    main()
