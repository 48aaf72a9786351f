#!/usr/bin/env python3
"""Check that the sweep benches still simulate and print byte-identically.

Usage: check_report_digests.py <bench-binary-dir> <digest-file>

Each non-comment line of the digest file is

    <report-sha256>  <stdout-sha256>  <bench> [args...]

The script runs `<bench-binary-dir>/<bench> [args...] --report <tmp>`
at PRISM_SCALE=tiny (other PRISM_* knobs except PRISM_JOBS are
cleared) and checks two digests against the committed ones:

- the report's: the sha256 of the report stripped with
  strip_report.py's canonicalization (the same bytes
  `strip_report.py <tmp>` prints);
- the printed tables': the sha256 of the bench's stdout without its
  `# wrote report:` line (it names the temporary path) and without the
  banner's `; jobs: N (...)` note (the worker count changes nothing
  else the bench prints).

Any mismatch fails the check and names the config and the digest.

With PRISM_UPDATE_GOLDEN set, both digest columns are rewritten in
place instead: the explicit re-baseline path after an intentional
change to simulated behaviour or to a printed table.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from strip_report import strip  # noqa: E402

JOBS_NOTE = re.compile(r"; jobs: \d+ \(PRISM_JOBS/--jobs to change\)")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def printed_tables(stdout):
    """The bench's stdout minus what varies between identical runs."""
    lines = [JOBS_NOTE.sub("", line) for line in stdout.splitlines(True)
             if not line.startswith("# wrote report:")]
    return "".join(lines)


def digests(bench_dir, argv, tmp):
    path = os.path.join(tmp, "report.json")
    # Only the config line picks the run: other PRISM_* knobs in the
    # caller's environment (shards, protocol, machine, ...) are dropped.
    # PRISM_JOBS stays; reports and tables are the same at every worker
    # count.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PRISM_") or k == "PRISM_JOBS"}
    env["PRISM_SCALE"] = "tiny"
    env.setdefault("PRISM_JOBS", "2")
    cmd = [os.path.join(bench_dir, argv[0])] + argv[1:] + ["--report", path]
    run = subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE,
                         text=True)
    with open(path) as f:
        text = json.dumps(strip(json.load(f)), indent=1, sort_keys=True)
    return sha256(text + "\n"), sha256(printed_tables(run.stdout))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    bench_dir, digest_file = sys.argv[1], sys.argv[2]
    update = bool(os.environ.get("PRISM_UPDATE_GOLDEN"))
    with open(digest_file) as f:
        lines = f.read().splitlines()
    out, bad = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for line in lines:
            if not line.strip() or line.startswith("#"):
                out.append(line)
                continue
            want_report, want_stdout, config = line.split(None, 2)
            got_report, got_stdout = digests(bench_dir, config.split(), tmp)
            wrong = [f"{what} {got} (golden {want})"
                     for what, got, want in
                     (("report", got_report, want_report),
                      ("stdout", got_stdout, want_stdout))
                     if got != want]
            if wrong and not update:
                print(f"MISMATCH {config}: " + "; ".join(wrong))
                bad += 1
            else:
                print(f"ok       {config}")
            out.append(f"{got_report}  {got_stdout}  {config}")
    if update:
        with open(digest_file, "w") as f:
            f.write("\n".join(out) + "\n")
        print(f"rewrote {digest_file}")
    elif bad:
        print(f"{bad} config(s) no longer byte-identical; if the change "
              "is intended, re-baseline with PRISM_UPDATE_GOLDEN=1")
        sys.exit(1)


if __name__ == "__main__":
    main()
