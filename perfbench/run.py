#!/usr/bin/env python3
"""Benchmark entry point: build, run one workload, stamp, print the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the repository's libraries,
the tcppred_serve daemon and the perfbench harness) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
harness for one workload, keeps the metrics BENCHMARK.json names for the mode
(end_to_end with --trace 0, per_layer with --trace 1), checks each is present
with its unit, writes the stamped result under <build>/results/ and prints
the stamp and then, as the last stdout line, the result object.

Exit codes: 0 success; 1 a correctness check failed (the result is still
printed, with "correct": false); 2 the benchmark could not run (no sources,
build failure, harness crash, missing metric). Build logs go to stderr.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def nproc():
    return max(1, len(os.sched_getaffinity(0)))


def build(build_dir, env):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources under {ROOT / 'src'}; nothing to build")
    if not (build_dir / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, env=env).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", str(build_dir), "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def source_digest():
    """sha256 over the files the benchmark builds from: names the code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "tools" / "tcppred_serve.cpp", ROOT / "BENCHMARK.json"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def steal_ticks():
    """Host steal time so far (USER_HZ ticks): time this VM's CPUs were
    runnable but not running. Recorded per run to tell host noise apart."""
    try:
        return int(pathlib.Path("/proc/stat").read_text().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def stamp(harness):
    out = subprocess.run([str(harness), "--stamp"], capture_output=True, text=True)
    if out.returncode != 0:
        fail("harness --stamp failed")
    s = json.loads(out.stdout)
    s.update({"nproc": nproc(), "cpu_model": cpu_model(), "git_commit": git_commit(),
              "source_sha256": source_digest()})
    return s


def select_metrics(raw, spec, mode):
    """The metrics BENCHMARK.json names for the mode, each checked for
    presence, unit and a finite value."""
    chosen = {}
    for m in spec[mode]:
        got = raw.get(m["name"])
        if got is None:
            fail(f"harness did not measure {mode} metric {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            fail(f"metric {m['name']} is not a finite number: {got['value']}")
        chosen[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return chosen


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", default="",
                    help="test hook: corrupt the input of this correctness check")
    args = ap.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        fail(f"{spec_file} not found")
    spec = json.loads(spec_file.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = pathlib.Path.cwd() / build_root
    build_dir = build_root / "perfbench"
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    build(build_dir, env)
    harness = build_dir / "perfbench"
    serve_bin = build_dir / "tcppred_serve"

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = build_dir / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--serve-bin", str(serve_bin), "--work-dir", "."]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    steal0 = steal_ticks()
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    steal1 = steal_ticks()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited {proc.returncode}")
    raw = json.loads(lines[-1])

    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": select_metrics(raw["metrics"],
                                  spec, "per_layer" if args.trace else "end_to_end"),
    }
    if result["attempted"] < 1:
        fail("harness attempted no operations")
    st = stamp(harness)
    if steal0 is not None and steal1 is not None:
        st["host_steal_s"] = (steal1 - steal0) / os.sysconf("SC_CLK_TCK")
    results = build_dir / "results"
    results.mkdir(exist_ok=True)
    spans = work / f"spans-{args.workload}.jsonl"
    if spans.exists():
        shutil.move(str(spans), str(results / f"{tag}.spans.jsonl"))
    (results / f"{tag}.json").write_text(json.dumps(
        {"stamp": st, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "result": result, "all_metrics": raw["metrics"]}, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    print("stamp " + json.dumps(st))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
