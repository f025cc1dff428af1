#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 simbench/run.py --workload <rx_small|tx_bulk|coloc_rx|nvme_fio> \
        --seed <n> --seconds <s> --trace <0|1>

Prints a record line (the host fingerprint plus the benchmark's detail)
and, as the last line, the result object with the keys `correct`,
`attempted`, `failed` and `metrics`. Exits non-zero if the build fails,
a correctness check fails or the result is malformed. See README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    files = sorted(ROOT.glob("crates/*/src/**/*.rs")) + sorted(HERE.glob("src/*.rs"))
    files += sorted(ROOT.glob("crates/*/Cargo.toml")) + [HERE / "Cargo.toml"]
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def fingerprint():
    model = None
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "rustc": command_output(["rustc", "-V"]),
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    # One process, one sweep worker: the workloads are serial and closed.
    env = dict(os.environ, CARGO_TARGET_DIR=str(target), IOCTOPUS_THREADS="1")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("simbench: build failed", file=sys.stderr)
        return 1

    run = subprocess.run(
        [str(target / "release" / "simbench"),
         "--workload", args.workload, "--seed", str(args.seed % (1 << 64)),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--out", str(HERE / "out")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = run.stdout.strip().splitlines()
    try:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        print("simbench: malformed output:\n" + run.stdout, file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("simbench: unexpected result keys", file=sys.stderr)
        return 1
    record = {"host": fingerprint(), **detail, "result": result}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
