#!/usr/bin/env python3
"""Check that the sweep benches still simulate byte-identically.

Usage: check_report_digests.py <bench-binary-dir> <digest-file>

Each non-comment line of the digest file is

    <sha256>  <bench> [args...]

The script runs `<bench-binary-dir>/<bench> [args...] --report <tmp>`
at PRISM_SCALE=tiny (other PRISM_* knobs except PRISM_JOBS are
cleared), strips the report with strip_report.py's
canonicalization and compares the sha256 of the result (the same bytes
`strip_report.py <tmp>` prints) with the committed digest.  Any
mismatch fails the check and names the config.

With PRISM_UPDATE_GOLDEN set, the digest column is rewritten in place
instead — the explicit re-baseline path after an intentional change to
simulated behaviour.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from strip_report import strip  # noqa: E402


def stripped_digest(bench_dir, argv, tmp):
    path = os.path.join(tmp, "report.json")
    # Only the config line picks the run: other PRISM_* knobs in the
    # caller's environment (shards, protocol, machine, ...) are dropped.
    # PRISM_JOBS stays; reports are the same at every worker count.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PRISM_") or k == "PRISM_JOBS"}
    env["PRISM_SCALE"] = "tiny"
    env.setdefault("PRISM_JOBS", "2")
    cmd = [os.path.join(bench_dir, argv[0])] + argv[1:] + ["--report", path]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    with open(path) as f:
        text = json.dumps(strip(json.load(f)), indent=1, sort_keys=True)
    return hashlib.sha256((text + "\n").encode()).hexdigest()


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
            want, config = line.split(None, 1)
            got = stripped_digest(bench_dir, config.split(), tmp)
            if got != want and not update:
                print(f"MISMATCH {config}: {got} (golden {want})")
                bad += 1
            else:
                print(f"ok       {config}")
            out.append(f"{got}  {config}")
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
