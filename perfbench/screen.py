#!/usr/bin/env python3
"""Screens the paper_mix catalogue and prints its exclusion list.

Runs each candidate location through the `screen` binary, one process per
candidate, and excludes every candidate that fails or runs longer than the
limit. Paste the printed list into `EXCLUDED` in `src/catalogue.rs`.

    cargo build --release --manifest-path perfbench/Cargo.toml --bin screen
    python3 perfbench/screen.py <path to the screen binary> [limit_s] [per_k]
"""

import subprocess
import sys

KS = (4, 8, 16)


def main():
    binary = sys.argv[1]
    limit_s = float(sys.argv[2]) if len(sys.argv) > 2 else 2.0
    per_k = int(sys.argv[3]) if len(sys.argv) > 3 else 40
    excluded = []
    for k in KS:
        admitted = 0
        index = 0
        while admitted < per_k:
            try:
                run = subprocess.run(
                    [binary, str(k), str(index)],
                    capture_output=True,
                    text=True,
                    timeout=limit_s,
                )
                ok = run.returncode == 0
                detail = run.stdout.strip() or run.stderr.strip()
            except subprocess.TimeoutExpired:
                ok = False
                detail = f"{k} {index} over {limit_s} s"
            print(("admit   " if ok else "exclude ") + detail, file=sys.stderr)
            if ok:
                admitted += 1
            else:
                excluded.append((k, index))
            index += 1
    print("pub const EXCLUDED: &[(usize, u64)] = &[")
    for k, index in excluded:
        print(f"    ({k}, {index}),")
    print("];")


if __name__ == "__main__":
    main()
