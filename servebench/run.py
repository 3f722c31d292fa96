#!/usr/bin/env python3
"""Builds and runs the serving-stack benchmark (servebench).

Usage, from the root of a checkout:

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Configures servebench/CMakeLists.txt as a Release build under
$CARGO_TARGET_DIR (default .bench_build), builds it, and runs the binary
with DLSYS_THREADS=1. Build output goes to stderr. The binary's stdout is
passed through, then this script prints the JSON result line: the metrics
BENCHMARK.json lists (end_to_end with --trace 0, per_layer with --trace 1),
taken from the binary's `end_to_end|per_layer <name> <value> <unit>` lines,
and the request counts from its `requests attempted=<n> failed=<n>` line.
Any failure (missing sources, build error, failed check, missing or
non-finite metric, timeout) exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("tenant-frontdoor", "wide-mlp-swap", "fleet-chaos")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """sha256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", BENCH_DIR)
                   for p in d.rglob("*") if p.is_file()
                   and p.suffix in (".h", ".cc", ".txt", ".py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    """HEAD of the checkout, when the checkout is itself a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def build():
    """Configures (once) and builds; returns the binary and output dir."""
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    build_dir = base / "servebench"
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("dlsys sources (src/) not found next to servebench/")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = base / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, env=env, stdout=sys.stderr,
                       stderr=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "servebench", base / "servebench-out"


def metric_specs(kind):
    """(name, unit) of every metric of that kind BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def result_line(stdout, kind, specs):
    """The JSON result from the binary's metric and request-count lines."""
    values = {}
    counts = None
    for line in stdout.splitlines():
        f = line.split()
        if len(f) == 4 and f[0] == kind:
            values[f[1]] = (float(f[2]), f[3])
        elif len(f) == 3 and f[0] == "requests":
            counts = dict(kv.split("=") for kv in f[1:])
    if counts is None:
        raise RuntimeError("no 'requests attempted=.. failed=..' line")
    metrics = {}
    for name, unit in specs:
        if name not in values:
            raise RuntimeError(f"metric {name} was not measured")
        value, got_unit = values[name]
        if not math.isfinite(value) or got_unit != unit:
            raise RuntimeError(f"metric {name} = {value} {got_unit}, "
                               f"want a finite value in {unit}")
        metrics[name] = {"value": value, "unit": unit}
    attempted, failed = int(counts["attempted"]), int(counts["failed"])
    if attempted < 1 or not 0 <= failed <= attempted:
        raise RuntimeError(f"bad request counts {counts}")
    return json.dumps({"correct": True, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        kind = "per_layer" if args.trace else "end_to_end"
        specs = metric_specs(kind)
        binary, out_dir = build()
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log(f"set-up failed: {e}")
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["DLSYS_THREADS"] = "1"
    env["SERVEBENCH_COMMIT"] = commit()
    env["SERVEBENCH_SOURCE_SHA256"] = source_digest()
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    out = proc.stdout.decode(errors="replace")
    sys.stdout.write(out)
    if proc.returncode != 0:
        log(f"benchmark exited with status {proc.returncode}")
        return proc.returncode
    try:
        line = result_line(out, kind, specs)
    except (RuntimeError, ValueError, KeyError) as e:
        log(f"no result: {e}")
        return 5
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
