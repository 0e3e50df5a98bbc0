#!/usr/bin/env python3
"""Build clicbench from this source tree, run one workload, print the result.

    python3 clicbench/run.py --wire-rate 400000 \
        --workload tpcc-offline --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics (including `<module>.self_ms`
from the span file) with `--trace 1`. The lines before it list every
metric with its unit and a `# context` line with the seed, repetition
counts, machine descriptor and source revision. The exit code is 0 only
when the run finished and every correctness check passed.

The build lives in .bench_build/ at the root of the tree; span files
of traced runs are kept in .bench_build/spans/. See README.md here.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "clicbench")
BINARY = os.path.join(BUILD, "clicbench")
WORKLOADS = ("tpcc-offline", "tpcc-wire", "xl-writes-served")
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import spans  # noqa: E402


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Build output goes to
    stderr so standard output carries only results."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "clicbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """sha256 over the C++ sources and build files of the tree, so a run
    in a checkout that is not a git repository still names its code."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith((".", "build")))
        for name in sorted(filenames):
            if name.endswith((".h", ".cc")) or name == "CMakeLists.txt":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--wire-rate", type=float, required=True,
                   help="offered requests/s of the tpcc-wire latency phase")
    p.add_argument("--tiny", action="store_true",
                   help="self-test scale: tiny traces")
    p.add_argument("--digest", action="store_true",
                   help="print the workload trace digest and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.digest and (args.seconds is None or args.seconds <= 0):
        p.error("--seconds must be > 0")

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--wire-rate", repr(args.wire_rate)]
    if args.tiny:
        cmd.append("--tiny")
    if args.digest:
        out = subprocess.run(cmd + ["--digest"], capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
        sys.stdout.write(out.stdout)
        return out.returncode

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    result_path = os.path.join(BUILD, "result-%s.json" % tag)
    span_dir = os.path.join(BUILD_ROOT, "spans")
    span_path = os.path.join(span_dir, tag + ".tsv")
    scratch = os.path.join(BUILD, "scratch-%d" % os.getpid())
    os.makedirs(span_dir, exist_ok=True)
    os.makedirs(scratch, exist_ok=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd += ["--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--out", result_path, "--spans", span_path, "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("clicbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not os.path.exists(result_path):
        log("clicbench exited with %d and wrote no result" % proc.returncode)
        return 2
    with open(result_path) as f:
        res = json.load(f)

    if args.trace:
        metrics = dict(res["per_layer"])
        for module, ms in spans.module_self_ms(spans.load(span_path)).items():
            metrics[module + ".self_ms"] = {"value": ms, "unit": "ms"}
    else:
        metrics = dict(res["end_to_end"])
    context = {k: v["value"] for k, v in res["context"].items()}
    context.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "git_rev": git_rev(), "source_digest": source_digest(),
    })
    for name, m in metrics.items():
        print("%-32s %18.6f %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        m = res["context"]["p99_us"]
        print("%-32s %18.6f %s (not gated)" % ("p99_us", m["value"], m["unit"]))
    for failure in res["failures"]:
        print("CHECK FAILED: " + failure)
    print("# context " + json.dumps(context, sort_keys=True))
    correct = bool(res["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
