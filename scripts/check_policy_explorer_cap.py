#!/usr/bin/env python3
"""Check policy_explorer's --cap, --scale and --stats flags.

Usage: check_policy_explorer_cap.py <path to policy_explorer>

`--cap 70` must reproduce the default run (the default cap is 70%):
the same exec cycles for FFT under SCOMA-70 at tiny scale.  A cap
outside [0, 100] must exit 1 with a message naming --cap, and so must
a --scale that names no scale.  `--stats` must dump the capped run the
table reports: its summed kernel.clientPageOuts counts the whole run,
the table's client page-outs only the parallel phase, so the registry
reads at least the table's count, and SCOMA-70 pages out at tiny scale.
"""

import re
import subprocess
import sys


def explore(explorer, *extra):
    return subprocess.run(
        [explorer, "FFT", "SCOMA-70", "--scale", "tiny", *extra],
        capture_output=True, text=True, check=True).stdout


def table_value(out, row):
    m = re.search(rf"^\s*{row}\s+(\d+)", out, re.M)
    if not m:
        sys.exit(f"no {row} line in:\n{out}")
    return int(m.group(1))


def expect_refused(explorer, flag, value):
    bad = subprocess.run(
        [explorer, "FFT", "SCOMA-70", "--scale", "tiny", flag, value],
        capture_output=True, text=True)
    if bad.returncode != 1 or flag not in bad.stderr:
        sys.exit(f"{flag} {value}: exit {bad.returncode}, stderr "
                 f"{bad.stderr!r}; want exit 1 naming {flag}")


def main():
    explorer = sys.argv[1]
    default = table_value(explore(explorer), "exec cycles")
    at70 = table_value(explore(explorer, "--cap", "70"), "exec cycles")
    if at70 != default:
        sys.exit(f"--cap 70 ran {at70} exec cycles, the default run "
                 f"{default}")
    expect_refused(explorer, "--cap", "150")
    expect_refused(explorer, "--scale", "huge")

    out = explore(explorer, "--stats")
    table = table_value(out, "client page-outs")
    registry = sum(int(v) for v in re.findall(
        r"^node\d+\.kernel\.clientPageOuts (\d+)", out, re.M))
    if registry == 0 or registry < table:
        sys.exit(f"--stats dumped {registry} kernel.clientPageOuts, the "
                 f"table reports {table} client page-outs; want a "
                 f"nonzero count of at least the table's")
    print(f"ok: --cap 70 and the default both run {default} exec "
          f"cycles; --cap 150 and --scale huge are refused; --stats "
          f"dumps {registry} client page-outs (table: {table})")


if __name__ == "__main__":
    main()
