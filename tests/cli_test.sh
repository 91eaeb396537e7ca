#!/usr/bin/env bash
# CLI contract test for the shipped tools, run as a ctest:
#   cli_test.sh <tcppred_campaign> <tcppred_analyze>
#
# Verifies the exit-code convention (0 ok / 1 bad args / 2 runtime failure /
# 130 interrupted), that diagnostics land on stderr, and the fault +
# interrupt + --resume byte-identity guarantee end to end. Also drives a
# figure bench and the daemon from the same build tree.
set -u

CAMPAIGN=${1:?usage: cli_test.sh CAMPAIGN_BIN ANALYZE_BIN}
ANALYZE=${2:?usage: cli_test.sh CAMPAIGN_BIN ANALYZE_BIN}
# The build tree the tools came from (<build>/tools/tcppred_campaign).
BUILD_DIR=$(cd "$(dirname "$CAMPAIGN")/.." && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

check_exit() {  # description expected actual
    if [ "$3" -ne "$2" ]; then
        echo "FAIL: $1 (expected exit $2, got $3)"
        FAILURES=$((FAILURES + 1))
    else
        echo "ok: $1"
    fi
}

TINY="--paths 2 --traces 1 --epochs 3 --transfer-s 1.5"

# --- bad arguments -> 1, usage on stderr, nothing on stdout
"$CAMPAIGN" >"$WORK/out" 2>"$WORK/err"; check_exit "campaign without --out" 1 $?
[ -s "$WORK/out" ] && { echo "FAIL: campaign usage leaked to stdout"; FAILURES=$((FAILURES+1)); }
grep -q "usage:" "$WORK/err" || { echo "FAIL: campaign usage not on stderr"; FAILURES=$((FAILURES+1)); }

"$CAMPAIGN" --no-such-flag >/dev/null 2>&1; check_exit "campaign unknown flag" 1 $?

# --- malformed flag VALUES -> 2, diagnostic names the flag (the checked
# parser of core/checked_parse.hpp; atoi used to turn these into 0 silently)
"$CAMPAIGN" --out "$WORK/x.csv" --paths foo >/dev/null 2>"$WORK/err"
check_exit "campaign --paths foo" 2 $?
grep -q -- "--paths" "$WORK/err" || { echo "FAIL: bad --paths error does not name the flag"; FAILURES=$((FAILURES+1)); }
"$CAMPAIGN" --out "$WORK/x.csv" --paths -3 >/dev/null 2>"$WORK/err"
check_exit "campaign --paths -3" 2 $?
grep -q -- "--paths" "$WORK/err" || { echo "FAIL: negative --paths error does not name the flag"; FAILURES=$((FAILURES+1)); }
"$CAMPAIGN" --out "$WORK/x.csv" --epochs 3.5 >/dev/null 2>&1
check_exit "campaign --epochs 3.5" 2 $?
"$CAMPAIGN" --out "$WORK/x.csv" --seed -1 >/dev/null 2>&1
check_exit "campaign --seed -1" 2 $?
"$CAMPAIGN" --out "$WORK/x.csv" --workers 0 >/dev/null 2>&1
check_exit "campaign --workers 0" 2 $?
"$CAMPAIGN" --out "$WORK/x.csv" --transfer-s banana >/dev/null 2>&1
check_exit "campaign --transfer-s banana" 2 $?
for flag in "--faults bogus=1" "--shard x/2" "--format bogus"; do
    "$CAMPAIGN" --out "$WORK/x.csv" $flag >/dev/null 2>"$WORK/err"
    check_exit "campaign $flag" 2 $?
    grep -q -- "${flag%% *}" "$WORK/err" || { echo "FAIL: bad ${flag%% *} error does not name the flag"; FAILURES=$((FAILURES+1)); }
done

# Garbage in an env knob fails just as loudly, naming the variable.
REPRO_JOBS=garbage "$CAMPAIGN" $TINY --out "$WORK/x.csv" >/dev/null 2>"$WORK/err"
check_exit "campaign REPRO_JOBS=garbage" 2 $?
grep -q "REPRO_JOBS" "$WORK/err" || { echo "FAIL: bad REPRO_JOBS error does not name the variable"; FAILURES=$((FAILURES+1)); }
# ...while 0 still means auto (the documented --jobs 0 alias).
REPRO_JOBS=0 "$CAMPAIGN" $TINY --out "$WORK/envjobs.csv" >/dev/null 2>&1
check_exit "campaign REPRO_JOBS=0 is auto" 0 $?
REPRO_CROSS_MODEL=garbage "$CAMPAIGN" $TINY --out "$WORK/x.csv" >/dev/null 2>"$WORK/err"
check_exit "campaign REPRO_CROSS_MODEL=garbage" 2 $?
grep -q 'REPRO_CROSS_MODEL: "garbage"' "$WORK/err" || { echo "FAIL: bad REPRO_CROSS_MODEL error does not name the variable and value"; FAILURES=$((FAILURES+1)); }
"$CAMPAIGN" $TINY --out "$WORK/x.csv" --cross-model garbage >/dev/null 2>"$WORK/err"
check_exit "campaign --cross-model garbage" 2 $?
grep -q -- '--cross-model: "garbage"' "$WORK/err" || { echo "FAIL: bad --cross-model error does not name the flag and value"; FAILURES=$((FAILURES+1)); }
# REPRO_SCALE sizes the benches' campaign cache; they vet it before any work.
REPRO_SCALE=garbage REPRO_DATA_DIR="$WORK/data" "$BUILD_DIR/bench/fig02_fb_error_cdf" >/dev/null 2>"$WORK/err"
check_exit "bench REPRO_SCALE=garbage" 2 $?
grep -q 'REPRO_SCALE: "garbage"' "$WORK/err" || { echo "FAIL: bad REPRO_SCALE error does not name the variable and value"; FAILURES=$((FAILURES+1)); }
[ -e "$WORK/data" ] && { echo "FAIL: bench with bad REPRO_SCALE started a campaign"; FAILURES=$((FAILURES+1)); }
# REPRO_METRICS takes only empty, 0 or 1: garbage exits 2 naming it in every
# tool that honors it, and in the benches before any work.
REPRO_METRICS=yes "$CAMPAIGN" $TINY --out "$WORK/x.csv" >/dev/null 2>"$WORK/err"
check_exit "campaign REPRO_METRICS=yes" 2 $?
grep -q 'REPRO_METRICS: "yes"' "$WORK/err" || { echo "FAIL: campaign REPRO_METRICS error does not name the variable and value"; FAILURES=$((FAILURES+1)); }
[ -e "$WORK/x.csv" ] && { echo "FAIL: campaign with bad REPRO_METRICS wrote a CSV"; FAILURES=$((FAILURES+1)); }
REPRO_METRICS=2 "$ANALYZE" "$WORK/does-not-exist.csv" >/dev/null 2>"$WORK/err"
check_exit "analyze REPRO_METRICS=2" 2 $?
grep -q 'REPRO_METRICS: "2"' "$WORK/err" || { echo "FAIL: analyze REPRO_METRICS error does not name the variable"; FAILURES=$((FAILURES+1)); }
REPRO_METRICS=on "$BUILD_DIR/tools/tcppred_serve" --socket "$WORK/m.sock" >/dev/null 2>"$WORK/err"
check_exit "serve REPRO_METRICS=on" 2 $?
grep -q 'REPRO_METRICS: "on"' "$WORK/err" || { echo "FAIL: serve REPRO_METRICS error does not name the variable"; FAILURES=$((FAILURES+1)); }
REPRO_METRICS=true REPRO_DATA_DIR="$WORK/data" "$BUILD_DIR/bench/fig02_fb_error_cdf" >/dev/null 2>"$WORK/err"
check_exit "bench REPRO_METRICS=true" 2 $?
grep -q 'REPRO_METRICS: "true"' "$WORK/err" || { echo "FAIL: bench REPRO_METRICS error does not name the variable"; FAILURES=$((FAILURES+1)); }
[ -e "$WORK/data" ] && { echo "FAIL: bench with bad REPRO_METRICS started a campaign"; FAILURES=$((FAILURES+1)); }
REPRO_METRICS=1 "$CAMPAIGN" $TINY --out "$WORK/m1.csv" >/dev/null 2>"$WORK/err"
check_exit "campaign REPRO_METRICS=1" 0 $?
grep -q "== metrics summary ==" "$WORK/err" || { echo "FAIL: REPRO_METRICS=1 printed no metrics summary"; FAILURES=$((FAILURES+1)); }
REPRO_METRICS=0 "$CAMPAIGN" $TINY --out "$WORK/m0.csv" >/dev/null 2>"$WORK/err"
check_exit "campaign REPRO_METRICS=0" 0 $?
grep -q "== metrics summary ==" "$WORK/err" && { echo "FAIL: REPRO_METRICS=0 printed a metrics summary"; FAILURES=$((FAILURES+1)); }
# Fault and chaos environment knobs follow the same contract as --faults.
for knob in REPRO_FAULTS=bogus REPRO_FAULT_ABORT=2 REPRO_FAULT_SEED=7x \
            REPRO_CHAOS=kill=lots REPRO_CHAOS_ATTEMPT=x; do
    env "$knob" "$CAMPAIGN" $TINY --out "$WORK/x.csv" >/dev/null 2>"$WORK/err"
    check_exit "campaign $knob" 2 $?
    grep -q "${knob%%=*}" "$WORK/err" || { echo "FAIL: bad $knob error does not name the variable"; FAILURES=$((FAILURES+1)); }
done
"$ANALYZE" >/dev/null 2>&1; check_exit "analyze without dataset" 1 $?
"$ANALYZE" --help >/dev/null 2>&1; check_exit "analyze --help" 0 $?

# --- the flag-table contract (core/cli.hpp), the same in all four tools:
# unknown flag -> 1, missing value -> 1, malformed value -> 2 naming the
# flag, --help -> 0 listing every flag of the tool's README table. The
# serve cases carry no listen address, so none of them can start a daemon.
SERVE="$BUILD_DIR/tools/tcppred_serve"
LOADGEN="$BUILD_DIR/tools/tcppred_loadgen"
README="$(cd "$(dirname "$0")/.." && pwd)/README.md"
readme_flags() {  # tool -> every --flag in the first column of its README table
    awk -v head="\`$1\` (" '
        index($0, head) == 1 { found = 1; next }
        found && /^\|/ { rows = 1; split($0, col, "|"); print col[2]; next }
        rows { exit }' "$README" | grep -o -- '--[a-z][a-z-]*'
}
for tool in campaign analyze serve loadgen; do
    bin="$BUILD_DIR/tools/tcppred_$tool"
    "$bin" --no-such-flag >/dev/null 2>"$WORK/err"
    check_exit "$tool unknown flag" 1 $?
    grep -q "usage:" "$WORK/err" || { echo "FAIL: $tool unknown flag prints no usage"; FAILURES=$((FAILURES+1)); }
    "$bin" --help >"$WORK/out" 2>"$WORK/help"
    check_exit "$tool --help" 0 $?
    [ -s "$WORK/out" ] && { echo "FAIL: $tool --help leaked to stdout"; FAILURES=$((FAILURES+1)); }
    flags=$(readme_flags "tcppred_$tool")
    [ -n "$flags" ] || { echo "FAIL: no README flag table found for tcppred_$tool"; FAILURES=$((FAILURES+1)); }
    for flag in $flags; do
        grep -qE -- "^  $flag( |\$)" "$WORK/help" || { echo "FAIL: $tool --help does not list $flag"; FAILURES=$((FAILURES+1)); }
    done
done
for cmd in "$CAMPAIGN --out" "$CAMPAIGN --out $WORK/x.csv --paths" "$ANALYZE --trace" \
           "$SERVE --port" "$LOADGEN --from-store"; do
    set -- $cmd
    what="${1##*/} ${*: -1}"
    $cmd >/dev/null 2>"$WORK/err"
    check_exit "missing value: $what" 1 $?
    grep -q -- "missing value for ${*: -1}" "$WORK/err" || { echo "FAIL: $what does not name the flag"; FAILURES=$((FAILURES+1)); }
done
for cmd in "$SERVE --shards 0" "$SERVE --port 70000" "$SERVE --workers x" \
           "$LOADGEN --count x" "$LOADGEN --port 0" "$LOADGEN --start -1" \
           "$ANALYZE --predictors a,,b" "$SERVE --specs ," "$SERVE --specs fb:pftk," \
           "$LOADGEN --specs a,,b" "$CAMPAIGN --out $WORK/x.csv --jobs -1"; do
    set -- $cmd
    flag=${*: -2:1}
    what="${1##*/} $flag ${*: -1}"
    $cmd >/dev/null 2>"$WORK/err"
    check_exit "malformed value: $what" 2 $?
    grep -q -- "bad value for $flag" "$WORK/err" || { echo "FAIL: $what error does not name $flag"; FAILURES=$((FAILURES+1)); }
done
# An empty list is as malformed as an empty item, in every list flag.
"$ANALYZE" "$WORK/x.csv" --predictors '' >"$WORK/out" 2>"$WORK/err"
check_exit "analyze --predictors ''" 2 $?
grep -q -- "bad value for --predictors" "$WORK/err" || { echo "FAIL: empty --predictors error does not name the flag"; FAILURES=$((FAILURES+1)); }
[ -s "$WORK/out" ] && { echo "FAIL: analyze --predictors '' printed a report"; FAILURES=$((FAILURES+1)); }
for bin in "$SERVE" "$LOADGEN"; do
    "$bin" --specs '' >/dev/null 2>"$WORK/err"
    check_exit "${bin##*/} --specs ''" 2 $?
    grep -q -- "bad value for --specs" "$WORK/err" || { echo "FAIL: ${bin##*/} empty --specs error does not name the flag"; FAILURES=$((FAILURES+1)); }
done

# --second-set selects the base config; the size, seed and transfer flags
# apply on top of it wherever it stands on the command line. (A tool that
# let it reset them would run the full campaign-2 grid here, hence the
# timeout.)
SS="--paths 1 --traces 1 --epochs 1 --transfer-s 1 --jobs 1"
timeout 120 "$CAMPAIGN" --second-set $SS --out "$WORK/ss_first.csv" >/dev/null 2>&1
check_exit "campaign --second-set before the size flags" 0 $?
timeout 120 "$CAMPAIGN" $SS --second-set --out "$WORK/ss_last.csv" >/dev/null 2>&1
check_exit "campaign --second-set after the size flags" 0 $?
cmp -s "$WORK/ss_first.csv" "$WORK/ss_last.csv"
check_exit "--second-set is order-independent" 0 $?

# --- runtime failure -> 2
"$ANALYZE" "$WORK/does-not-exist.csv" >/dev/null 2>"$WORK/err"
check_exit "analyze missing dataset" 2 $?
grep -q "error:" "$WORK/err" || { echo "FAIL: analyze error not on stderr"; FAILURES=$((FAILURES+1)); }

printf 'not,a,campaign\ncsv,at,all\n' > "$WORK/garbage.csv"
"$ANALYZE" "$WORK/garbage.csv" >/dev/null 2>&1
check_exit "analyze malformed dataset" 2 $?

# --- success -> 0, CSV written, analyze reads it back
"$CAMPAIGN" $TINY --out "$WORK/clean.csv" --jobs 2 >/dev/null 2>&1
check_exit "campaign tiny clean run" 0 $?
[ -s "$WORK/clean.csv" ] || { echo "FAIL: no CSV written"; FAILURES=$((FAILURES+1)); }
"$ANALYZE" "$WORK/clean.csv" >"$WORK/analyze.out" 2>/dev/null
check_exit "analyze clean dataset" 0 $?
grep -q "formula-based" "$WORK/analyze.out" || { echo "FAIL: analyze summary missing"; FAILURES=$((FAILURES+1)); }

# --- predictor specs: valid list -> 0 and per-spec rows; bad spec -> 2 with
# the offending spec named on stderr
"$ANALYZE" "$WORK/clean.csv" --predictors 5-MA,fb:sqrt,hybrid:0.8-HW >"$WORK/specs.out" 2>/dev/null
check_exit "analyze custom --predictors" 0 $?
for spec in 5-MA fb:sqrt hybrid:0.8-HW; do
    grep -q "$spec" "$WORK/specs.out" || { echo "FAIL: --predictors row for $spec missing"; FAILURES=$((FAILURES+1)); }
done
"$ANALYZE" "$WORK/clean.csv" --predictors bogus >/dev/null 2>"$WORK/err"
check_exit "analyze unknown predictor spec" 2 $?
grep -q "bad predictor spec 'bogus'" "$WORK/err" || { echo "FAIL: spec error does not name the spec"; FAILURES=$((FAILURES+1)); }

# --- faulty campaign: deterministic for a fixed seed, analyze conditions on it
FAULTS="pathload=0.3,abort=0.4,seed=7"
"$CAMPAIGN" $TINY --epochs 4 --out "$WORK/faulty1.csv" --faults "$FAULTS" --jobs 2 >/dev/null 2>&1
check_exit "faulty campaign run 1" 0 $?
"$CAMPAIGN" $TINY --epochs 4 --out "$WORK/faulty2.csv" --faults "$FAULTS" --jobs 1 >/dev/null 2>&1
check_exit "faulty campaign run 2" 0 $?
cmp -s "$WORK/faulty1.csv" "$WORK/faulty2.csv"
check_exit "faulty runs byte-identical across job counts" 0 $?
grep -q "fault_flags" "$WORK/faulty1.csv" || { echo "FAIL: faulty CSV lacks fault_flags"; FAILURES=$((FAILURES+1)); }
grep -q "fault_flags" "$WORK/clean.csv" && { echo "FAIL: clean CSV has fault_flags column"; FAILURES=$((FAILURES+1)); }
"$ANALYZE" "$WORK/faulty1.csv" >"$WORK/faulty.out" 2>/dev/null
check_exit "analyze faulty dataset" 0 $?
grep -q "measurement status" "$WORK/faulty.out" || { echo "FAIL: analyze lacks fault-conditioned RMSRE"; FAILURES=$((FAILURES+1)); }

# --- observability flags: --trace writes parseable JSONL, --metrics-summary
# prints the counter table to stderr, --from-trace round-trips, and a
# malformed trace is a runtime failure (2).
"$CAMPAIGN" $TINY --out "$WORK/obs.csv" --trace "$WORK/obs.jsonl" \
    --metrics-summary >/dev/null 2>"$WORK/obs.err"
check_exit "campaign with --trace and --metrics-summary" 0 $?
[ -s "$WORK/obs.jsonl" ] || { echo "FAIL: --trace wrote nothing"; FAILURES=$((FAILURES+1)); }
grep -q '"ev":"epoch"' "$WORK/obs.jsonl" || { echo "FAIL: trace lacks epoch events"; FAILURES=$((FAILURES+1)); }
grep -q "== metrics summary ==" "$WORK/obs.err" || { echo "FAIL: metrics summary not on stderr"; FAILURES=$((FAILURES+1)); }

"$ANALYZE" "$WORK/obs.csv" --trace "$WORK/engine.jsonl" >/dev/null 2>&1
check_exit "analyze with --trace" 0 $?
"$ANALYZE" --from-trace "$WORK/engine.jsonl" >"$WORK/fromtrace.out" 2>/dev/null
check_exit "analyze --from-trace round-trip" 0 $?
grep -q "re-derived from trace" "$WORK/fromtrace.out" || { echo "FAIL: --from-trace table missing"; FAILURES=$((FAILURES+1)); }
printf 'not json at all\n' > "$WORK/bad.jsonl"
"$ANALYZE" --from-trace "$WORK/bad.jsonl" >/dev/null 2>&1
check_exit "analyze malformed trace" 2 $?
"$ANALYZE" --from-trace "$WORK/engine.jsonl" "$WORK/obs.csv" >/dev/null 2>&1
check_exit "--from-trace plus dataset is a usage error" 1 $?

# --- interrupt + resume: SIGINT mid-run exits 130, --resume completes, and
# the result is byte-identical to an uninterrupted run.
"$CAMPAIGN" $TINY --epochs 30 --out "$WORK/full.csv" --faults "$FAULTS" --jobs 2 >/dev/null 2>&1
check_exit "uninterrupted reference run" 0 $?

"$CAMPAIGN" $TINY --epochs 30 --out "$WORK/resumed.csv" --faults "$FAULTS" \
    --checkpoint-every 1 --jobs 1 >/dev/null 2>&1 &
PID=$!
# Wait for the first checkpoint flush, then interrupt.
for _ in $(seq 1 200); do
    [ -f "$WORK/resumed.csv.ckpt" ] && break
    sleep 0.1
done
kill -INT "$PID" 2>/dev/null
wait "$PID"
RC=$?
if [ "$RC" -eq 130 ]; then
    echo "ok: interrupted campaign exits 130"
    [ -f "$WORK/resumed.csv.ckpt" ] || { echo "FAIL: no checkpoint after SIGINT"; FAILURES=$((FAILURES+1)); }
elif [ "$RC" -eq 0 ]; then
    # The tiny run can legitimately finish before the signal lands; the
    # resume path is still exercised below (resume of a complete run).
    echo "ok: campaign finished before SIGINT landed (timing)"
else
    echo "FAIL: interrupted campaign exited $RC (want 130 or 0)"
    FAILURES=$((FAILURES + 1))
fi

"$CAMPAIGN" $TINY --epochs 30 --out "$WORK/resumed.csv" --faults "$FAULTS" \
    --resume --jobs 2 >/dev/null 2>&1
check_exit "resumed campaign completes" 0 $?
cmp -s "$WORK/full.csv" "$WORK/resumed.csv"
check_exit "resumed CSV byte-identical to uninterrupted" 0 $?
[ -f "$WORK/resumed.csv.ckpt" ] && { echo "FAIL: checkpoint not removed on completion"; FAILURES=$((FAILURES+1)); }

# --- sharding: bad specs -> 2, shard+merge and --workers reproduce the
# serial CSV byte for byte, merge of a missing shard -> 2, and a resume
# under a changed config names the differing field.
"$CAMPAIGN" $TINY --out "$WORK/s.csv" --shard "2/2" >/dev/null 2>&1
check_exit "out-of-range --shard" 2 $?
"$CAMPAIGN" $TINY --out "$WORK/s.csv" --workers 2 --shard 0/2 >/dev/null 2>&1
check_exit "--workers with --shard" 1 $?

"$CAMPAIGN" $TINY --out "$WORK/s.csv" --shard 0/2 >/dev/null 2>&1
check_exit "shard 0/2 run" 0 $?
[ -f "$WORK/s.csv" ] && { echo "FAIL: shard run wrote a CSV"; FAILURES=$((FAILURES+1)); }
"$CAMPAIGN" $TINY --out "$WORK/s.csv" --merge 2 >/dev/null 2>&1
check_exit "merge with a shard still missing" 2 $?
"$CAMPAIGN" $TINY --out "$WORK/s.csv" --shard 1/2 >/dev/null 2>&1
check_exit "shard 1/2 run" 0 $?
"$CAMPAIGN" $TINY --out "$WORK/s.csv" --merge 2 >/dev/null 2>&1
check_exit "merge of both shards" 0 $?
"$CAMPAIGN" $TINY --out "$WORK/serial.csv" --jobs 1 >/dev/null 2>&1
cmp -s "$WORK/serial.csv" "$WORK/s.csv"
check_exit "shard+merge CSV byte-identical to serial" 0 $?

"$CAMPAIGN" $TINY --out "$WORK/sup.csv" --workers 2 >/dev/null 2>&1
check_exit "supervised --workers 2 run" 0 $?
cmp -s "$WORK/serial.csv" "$WORK/sup.csv"
check_exit "supervised CSV byte-identical to serial" 0 $?
ls "$WORK"/sup.csv.shard-*.ckpt >/dev/null 2>&1 && { echo "FAIL: shard checkpoints survive a complete supervised run"; FAILURES=$((FAILURES+1)); }

# --- record store (--format store / --convert / --from-store): the past-RAM
# path must reproduce the CSV path byte for byte at every entry point.
"$CAMPAIGN" $TINY --out "$WORK/a.store" --format store --jobs 2 >/dev/null 2>&1
check_exit "store campaign run (jobs 2)" 0 $?
"$CAMPAIGN" --convert "$WORK/a.store" --out "$WORK/a.csv" >/dev/null 2>&1
check_exit "store -> CSV conversion" 0 $?
cmp -s "$WORK/a.csv" "$WORK/serial.csv"
check_exit "converted store byte-identical to serial CSV" 0 $?

"$CAMPAIGN" $TINY --out "$WORK/b.store" --format store --jobs 1 >/dev/null 2>&1
check_exit "store campaign run (jobs 1)" 0 $?
cmp -s "$WORK/a.store" "$WORK/b.store"
check_exit "store bytes identical across job counts" 0 $?

"$CAMPAIGN" $TINY --out "$WORK/w.store" --format store --workers 2 >/dev/null 2>&1
check_exit "supervised --workers store run" 0 $?
"$CAMPAIGN" --convert "$WORK/w.store" --out "$WORK/w.csv" >/dev/null 2>&1
cmp -s "$WORK/w.csv" "$WORK/serial.csv"
check_exit "workers store converts byte-identical to serial CSV" 0 $?

# Shard checkpoints merge straight into a store (s.csv's shards were
# consumed by the CSV merge above, so run a fresh pair).
"$CAMPAIGN" $TINY --out "$WORK/m.store" --shard 0/2 >/dev/null 2>&1
"$CAMPAIGN" $TINY --out "$WORK/m.store" --shard 1/2 >/dev/null 2>&1
"$CAMPAIGN" $TINY --out "$WORK/m.store" --merge 2 --format store >/dev/null 2>&1
check_exit "merge of shards into a store" 0 $?
"$CAMPAIGN" --convert "$WORK/m.store" --out "$WORK/m.csv" >/dev/null 2>&1
cmp -s "$WORK/m.csv" "$WORK/serial.csv"
check_exit "merged store converts byte-identical to serial CSV" 0 $?

# Streamed analysis reads the store directly and must print the same report.
"$ANALYZE" "$WORK/serial.csv" >"$WORK/csv_report.out" 2>/dev/null
"$ANALYZE" --from-store "$WORK/a.store" >"$WORK/store_report.out" 2>/dev/null
check_exit "analyze --from-store" 0 $?
cmp -s "$WORK/store_report.out" "$WORK/csv_report.out"
check_exit "--from-store report byte-identical to CSV report" 0 $?

# Flag validation: the store path is explicit about what it refuses.
"$CAMPAIGN" $TINY --out "$WORK/x.store" --format store --resume >/dev/null 2>&1
check_exit "store with --resume" 1 $?
"$CAMPAIGN" $TINY --out "$WORK/x.store" --format store --shard 0/2 >/dev/null 2>&1
check_exit "store with --shard" 1 $?
"$CAMPAIGN" --convert "$WORK/a.store" --out "$WORK/x.csv" --workers 2 >/dev/null 2>&1
check_exit "--convert with campaign flags" 1 $?
"$ANALYZE" --from-store "$WORK/a.store" "$WORK/serial.csv" >/dev/null 2>&1
check_exit "--from-store plus dataset is a usage error" 1 $?
"$ANALYZE" --from-store "$WORK/does-not-exist.store" >/dev/null 2>&1
check_exit "--from-store missing store" 2 $?

# Resume under a changed seed: refused, and the error names the field.
"$CAMPAIGN" $TINY --out "$WORK/mm.csv" --shard 0/2 >/dev/null 2>&1
"$CAMPAIGN" $TINY --out "$WORK/mm.csv" --shard 0/2 --seed 99 --resume >/dev/null 2>"$WORK/mm.err"
check_exit "shard resume under changed seed" 2 $?
grep -q "seed: checkpoint=20040501 requested=99" "$WORK/mm.err" || { echo "FAIL: mismatch error does not name the seed field"; FAILURES=$((FAILURES+1)); }

# A leftover checkpoint in the retired row format is refused on --resume,
# naming the format, and exits 2 like any other resume refusal.
printf 'tcppred-checkpoint,v1\nfingerprint,v2\ntotal,6\nrec,1,3x\n' > "$WORK/legacy.csv.ckpt"
"$CAMPAIGN" $TINY --out "$WORK/legacy.csv" --resume >/dev/null 2>"$WORK/legacy.err"
check_exit "resume from a retired row-format checkpoint" 2 $?
grep -q "tcppred-checkpoint,v1" "$WORK/legacy.err" || { echo "FAIL: legacy checkpoint refusal does not name the format"; FAILURES=$((FAILURES+1)); }
[ -e "$WORK/legacy.csv" ] && { echo "FAIL: resume from a legacy checkpoint wrote a CSV"; FAILURES=$((FAILURES+1)); }

if [ "$FAILURES" -ne 0 ]; then
    echo "$FAILURES CLI contract check(s) failed"
    exit 1
fi
echo "all CLI contract checks passed"
