#!/usr/bin/env python3
"""Builds sbomdiff from source and runs one benchmark workload.

    python3 perfbench/run.py --workload <corpus|serve-cold|serve-large>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the repository root. It builds the `sbomdiff-serve` binary of
the repository and the benchmark package next to it (into
$CARGO_TARGET_DIR, or `target/` when unset), then hands over to the
benchmark binary, whose last line of standard output is the result object.
Build output goes to standard error. `--self-test` runs the benchmark's own
tests against the freshly built server instead.
"""

import os
import subprocess
import sys


def cargo(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(["cargo", *args], stdout=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit(done.returncode)


def main():
    if os.environ.get("SBOMDIFF_FAULTS", "").strip() not in ("", "off"):
        print("perfbench: refusing to run with SBOMDIFF_FAULTS set", file=sys.stderr)
        sys.exit(2)
    for needed in ("Cargo.toml", "crates", "perfbench/Cargo.toml"):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the repository root",
                  file=sys.stderr)
            sys.exit(2)
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or "target")
    cargo(["build", "--release", "--quiet", "-p", "sbomdiff-service",
           "--bin", "sbomdiff-serve"], target_dir)
    serve_bin = os.path.join(target_dir, "release", "sbomdiff-serve")
    out_dir = os.path.join(target_dir, "perfbench")
    if sys.argv[1:] == ["--self-test"]:
        env = dict(os.environ, CARGO_TARGET_DIR=target_dir,
                   PERFBENCH_SERVE_BIN=serve_bin)
        done = subprocess.run(["cargo", "test", "--release", "--quiet",
                               "--manifest-path", "perfbench/Cargo.toml"], env=env)
        sys.exit(done.returncode)
    cargo(["build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
          target_dir)
    bench_bin = os.path.join(target_dir, "release", "perfbench")
    os.execv(bench_bin, [bench_bin, *sys.argv[1:],
                         "--serve-bin", serve_bin, "--out", out_dir])


if __name__ == "__main__":
    main()
