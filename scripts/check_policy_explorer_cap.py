#!/usr/bin/env python3
"""Check policy_explorer's --cap flag, which takes a percentage.

Usage: check_policy_explorer_cap.py <path to policy_explorer>

`--cap 70` must reproduce the default run (the default cap is 70%):
the same exec cycles for FFT under SCOMA-70 at tiny scale.  A cap
outside [0, 100] must exit 1 with a message naming --cap.
"""

import re
import subprocess
import sys


def exec_cycles(explorer, *extra):
    out = subprocess.run(
        [explorer, "FFT", "SCOMA-70", "--scale", "tiny", *extra],
        capture_output=True, text=True, check=True).stdout
    m = re.search(r"^\s*exec cycles\s+(\d+)", out, re.M)
    if not m:
        sys.exit(f"no exec cycles line in:\n{out}")
    return int(m.group(1))


def main():
    explorer = sys.argv[1]
    default = exec_cycles(explorer)
    at70 = exec_cycles(explorer, "--cap", "70")
    if at70 != default:
        sys.exit(f"--cap 70 ran {at70} exec cycles, the default run "
                 f"{default}")
    bad = subprocess.run(
        [explorer, "FFT", "SCOMA-70", "--scale", "tiny", "--cap", "150"],
        capture_output=True, text=True)
    if bad.returncode != 1 or "--cap" not in bad.stderr:
        sys.exit(f"--cap 150: exit {bad.returncode}, stderr "
                 f"{bad.stderr!r}; want exit 1 naming --cap")
    print(f"ok: --cap 70 and the default both run {default} exec "
          f"cycles; --cap 150 is refused")


if __name__ == "__main__":
    main()
