#!/usr/bin/env bash
# Perf report generator: runs the micro-benchmarks and timed campaign runs
# and emits four machine-readable JSON files, each stamped with the host and
# build that produced it (see PERFORMANCE.md for the schema and how to read
# a trajectory of these):
#
#   BENCH_scheduler.json  event-substrate micro-benchmarks (google-benchmark
#                         numbers for random draws, load trajectories, the
#                         scheduler, link forwarding and TCP hot loops, from
#                         bench/micro_engine): median, min and max of
#                         REPEATS (3) repetitions per row
#   BENCH_campaign.json   end-to-end campaign throughput in epochs/s, per
#                         campaign and cross-traffic model: median, min and
#                         max of REPEATS (3) runs each
#   BENCH_record_store.json
#                         record-store cursor rates (sequential ingest and
#                         scan in records/s, from bench/micro_store)
#   BENCH_serve.json      online daemon replay throughput (predictions/s and
#                         PREDICT round-trip p50/p99 over a Unix socket,
#                         from tools/tcppred_loadgen against tcppred_serve)
#
# Usage: tools/bench_report.sh [options]
#   --build-dir DIR   build tree with bench/ and tools/ binaries
#                     (default: build)
#   --out-dir DIR     where to write the BENCH_*.json files, created if
#                     missing (default: repository root — the committed
#                     copies)
#   --scale S         tiny | normal   campaign geometry (default: tiny,
#                     the scale of the committed files and of CI's
#                     comparison; PERFORMANCE.md's trajectory tables are
#                     normal scale)
#   --jobs N          worker threads for the campaign runs (default: 1,
#                     serial — the number quoted in the perf trajectory)
#
# The campaign runs write their CSVs to a temp dir and discard them: this
# script measures, it does not produce datasets. Runs are serial by default
# so the epochs/s numbers compare across machines with different core
# counts. CI runs this at tiny scale and gates on a >2x regression of the
# median against the committed numbers (.github/workflows/ci.yml, "perf
# smoke").
set -eu

SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
BUILD_DIR="$SRC_DIR/build"
OUT_DIR="$SRC_DIR"
SCALE="tiny"
JOBS=1
# Timed runs per (campaign, cross model) and repetitions per micro-benchmark
# row: a median with its spread, not a single run that one noisy neighbour
# can skew.
REPEATS=3

while [ $# -gt 0 ]; do
    case "$1" in
        --build-dir) BUILD_DIR="$2"; shift 2 ;;
        --out-dir) OUT_DIR="$2"; shift 2 ;;
        --scale) SCALE="$2"; shift 2 ;;
        --jobs) JOBS="$2"; shift 2 ;;
        *) echo "bench_report.sh: unknown option: $1" >&2; exit 2 ;;
    esac
done

case "$SCALE" in tiny|normal) ;; *)
    echo "bench_report.sh: --scale must be tiny or normal, got: $SCALE" >&2
    exit 2 ;;
esac

MICRO="$BUILD_DIR/bench/micro_engine"
MICRO_STORE="$BUILD_DIR/bench/micro_store"
CAMPAIGN="$BUILD_DIR/tools/tcppred_campaign"
SERVE="$BUILD_DIR/tools/tcppred_serve"
LOADGEN="$BUILD_DIR/tools/tcppred_loadgen"
for bin in "$MICRO" "$MICRO_STORE" "$CAMPAIGN" "$SERVE" "$LOADGEN"; do
    if [ ! -x "$bin" ]; then
        echo "bench_report.sh: missing binary: $bin (build the repo first)" >&2
        exit 1
    fi
done

# The writers below open files directly under OUT_DIR; a fresh CI runner
# passes a directory that does not exist yet.
mkdir -p "$OUT_DIR"

TMP_DIR="$(mktemp -d /tmp/bench_report.XXXXXX)"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$TMP_DIR"
}
trap cleanup EXIT

# --- micro-benchmarks -> BENCH_scheduler.json -----------------------------
echo "running micro_engine benchmarks..." >&2
"$MICRO" --benchmark_format=json --benchmark_repetitions="$REPEATS" > "$TMP_DIR/micro.json"

python3 - "$TMP_DIR/micro.json" "$OUT_DIR/BENCH_scheduler.json" "$REPEATS" <<'PY'
import json, statistics, sys
raw = json.load(open(sys.argv[1]))
rows = {}  # row name -> its repetitions, in output order
for b in raw["benchmarks"]:
    if b.get("run_type", "iteration") == "iteration":
        rows.setdefault(b.get("run_name", b["name"]), []).append(b)

def spread(values):
    return {"median": round(statistics.median(values), 1),
            "min": round(min(values), 1), "max": round(max(values), 1)}

out = {
    "schema": "tcppred-bench-scheduler-v2",
    "source": "bench/micro_engine --benchmark_format=json "
              f"--benchmark_repetitions={sys.argv[3]}",
    "benchmarks": [
        {
            "name": name,
            "repeats": len(reps),
            "real_time_ns": spread([b["real_time"] for b in reps]),
            **(
                {"items_per_second": spread([b["items_per_second"] for b in reps])}
                if "items_per_second" in reps[0]
                else {}
            ),
        }
        for name, reps in rows.items()
    ],
}
json.dump(out, open(sys.argv[2], "w"), indent=2)
open(sys.argv[2], "a").write("\n")
print("wrote", sys.argv[2], file=sys.stderr)
PY

# --- record-store cursors -> BENCH_record_store.json ----------------------
echo "running micro_store benchmarks..." >&2
"$MICRO_STORE" --benchmark_format=json > "$TMP_DIR/micro_store.json"

python3 - "$TMP_DIR/micro_store.json" "$OUT_DIR/BENCH_record_store.json" <<'PY'
import json, sys
raw = json.load(open(sys.argv[1]))
out = {
    "schema": "tcppred-bench-record-store-v1",
    "source": "bench/micro_store --benchmark_format=json",
    "benchmarks": [
        {
            "name": b["name"],
            "real_time_ns": round(b["real_time"], 1),
            "records_per_second": round(b["items_per_second"], 1),
        }
        for b in raw["benchmarks"]
        if b.get("run_type", "iteration") == "iteration"
    ],
}
json.dump(out, open(sys.argv[2], "w"), indent=2)
open(sys.argv[2], "a").write("\n")
print("wrote", sys.argv[2], file=sys.stderr)
PY

# --- campaign throughput -> BENCH_campaign.json ---------------------------
# Tiny geometry mirrors testbed::campaign{1,2}_config(campaign_scale::tiny);
# normal scale is the tool's defaults.
if [ "$SCALE" = "tiny" ]; then
    C1_FLAGS="--paths 8 --traces 1 --epochs 45"
    C2_FLAGS="--second-set --paths 4 --traces 1 --epochs 15"
else
    C1_FLAGS=""
    C2_FLAGS="--second-set"
fi

: > "$TMP_DIR/campaign_runs.txt"
for model in packet fluid; do
    for set in 1 2; do
        if [ "$set" = 1 ]; then flags="$C1_FLAGS"; else flags="$C2_FLAGS"; fi
        for rep in $(seq "$REPEATS"); do
            echo "running campaign$set ($SCALE, $model, jobs=$JOBS, run $rep/$REPEATS)..." >&2
            # shellcheck disable=SC2086  # flags is a word list by construction
            "$CAMPAIGN" --out "$TMP_DIR/c$set-$model.csv" --jobs "$JOBS" \
                --cross-model "$model" $flags 2> "$TMP_DIR/c$set-$model.log"
            line="$(grep 'epochs in' "$TMP_DIR/c$set-$model.log")"
            echo "$set $model $line" >> "$TMP_DIR/campaign_runs.txt"
            echo "  $line" >&2
        done
    done
done

python3 - "$TMP_DIR/campaign_runs.txt" "$OUT_DIR/BENCH_campaign.json" \
    "$SCALE" "$JOBS" <<'PY'
import json, re, statistics, sys
timings = {}  # (campaign, model) -> (epochs, [epochs/s per run])
for line in open(sys.argv[1]):
    # "<set> <model> <N> epochs in <S> s (<R> epochs/s)"
    m = re.match(r"(\d) (\w+) (\d+) epochs in ([\d.]+) s \(([\d.]+) epochs/s\)",
                 line.strip())
    if not m:
        sys.exit(f"unparseable campaign timing line: {line!r}")
    key = (int(m.group(1)), m.group(2))
    timings.setdefault(key, (int(m.group(3)), []))[1].append(float(m.group(5)))
runs = [
    {
        "campaign": campaign,
        "cross_model": model,
        "epochs": epochs,
        "repeats": len(rates),
        "epochs_per_s": {
            "median": statistics.median(rates),
            "min": min(rates),
            "max": max(rates),
        },
    }
    for (campaign, model), (epochs, rates) in timings.items()
]
out = {
    "schema": "tcppred-bench-campaign-v2",
    "scale": sys.argv[3],
    "jobs": int(sys.argv[4]),
    "runs": runs,
}
json.dump(out, open(sys.argv[2], "w"), indent=2)
open(sys.argv[2], "a").write("\n")
print("wrote", sys.argv[2], file=sys.stderr)
PY

# --- serve daemon replay -> BENCH_serve.json ------------------------------
# A store replayed over a Unix socket; the loadgen writes the JSON itself
# (schema tcppred-bench-serve-v1). Like the micro-benchmarks this file is
# schema-gated only — socket round-trip latency on shared runners is too
# noisy for a numeric gate.
if [ "$SCALE" = "tiny" ]; then
    SERVE_FLAGS="--paths 4 --traces 1 --epochs 40"
else
    SERVE_FLAGS="--paths 8 --traces 2 --epochs 120"
fi
echo "running serve replay bench ($SCALE)..." >&2
# shellcheck disable=SC2086  # SERVE_FLAGS is a word list by construction
"$CAMPAIGN" --out "$TMP_DIR/serve.store" --format store --jobs "$JOBS" \
    $SERVE_FLAGS 2>/dev/null
"$SERVE" --socket "$TMP_DIR/serve.sock" --specs "fb:pftk,10-MA" \
    >/dev/null 2>&1 &
SERVE_PID=$!
for _ in $(seq 100); do
    [ -S "$TMP_DIR/serve.sock" ] && break
    sleep 0.05
done
"$LOADGEN" --from-store "$TMP_DIR/serve.store" --specs "fb:pftk,10-MA" \
    --socket "$TMP_DIR/serve.sock" --bench "$OUT_DIR/BENCH_serve.json" \
    2> "$TMP_DIR/serve.log"
kill -INT "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
grep 'predictions/s' "$TMP_DIR/serve.log" | sed 's/^/  /' >&2 || true
echo "wrote $OUT_DIR/BENCH_serve.json" >&2

# --- machine stamp: every BENCH file names the host and build it measured,
# so check_bench_regression.py can tell hardware apart from a regression.
python3 - "$BUILD_DIR" "$OUT_DIR"/BENCH_{scheduler,campaign,record_store,serve}.json <<'PY'
import json, os, re, shlex, subprocess, sys
build = sys.argv[1]
bt = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", open(build + "/CMakeCache.txt").read(), re.M)
argv = shlex.split(next(c["command"] for c in json.load(open(build + "/compile_commands.json"))
                        if c["file"].endswith("tools/tcppred_campaign.cpp")))
cpu = [l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")]
version = subprocess.run([argv[0], "--version"], capture_output=True, text=True).stdout
stamp = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": (cpu or ["unknown"])[0],
         "compiler": version.split("\n")[0],
         "build_type": (bt.group(1) if bt else "") or "Release",  # empty: the CMakeLists default
         "flags": " ".join(a for a in argv[1:] if a.startswith(("-O", "-f", "-m", "-g", "-D")))}
for path in sys.argv[2:]:
    doc = dict(json.load(open(path)), machine=stamp)
    open(path, "w").write(json.dumps(doc, indent=2) + "\n")
print("stamped:", json.dumps(stamp), file=sys.stderr)
PY

echo "bench report complete: $OUT_DIR/BENCH_scheduler.json $OUT_DIR/BENCH_campaign.json $OUT_DIR/BENCH_record_store.json $OUT_DIR/BENCH_serve.json" >&2
