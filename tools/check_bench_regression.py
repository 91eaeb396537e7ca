#!/usr/bin/env python3
"""Perf-smoke gate: validate BENCH_*.json schemas and fail on regression.

Usage:
    tools/check_bench_regression.py COMMITTED_DIR FRESH_DIR [--factor 2.0]

Loads BENCH_campaign.json, BENCH_scheduler.json, BENCH_record_store.json
and BENCH_serve.json from both directories,
validates the schemas (see PERFORMANCE.md), then compares each campaign
run's median epochs/s (over the repeated runs bench_report.sh makes): a
fresh median more than `factor` times slower than the committed one fails
the check. Only runs present in BOTH files are
compared (so adding a new campaign/model doesn't break the gate), but the
committed runs must all still exist. The other files (scheduler, record
store, serve) are schema-validated only: google-benchmark timings and
socket round-trip latencies on shared CI runners are too noisy for a hard
numeric gate, the end-to-end epochs/s is the contract. A WARN line (not a
failure) flags files whose machine stamps (bench_report.sh) differ or are
missing.
"""

import argparse
import json
import pathlib
import sys


def fail(msg: str) -> None:
    print(f"check_bench_regression: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: pathlib.Path) -> dict:
    if not path.is_file():
        fail(f"missing file: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        fail(f"invalid JSON in {path}: {e}")
    raise AssertionError  # unreachable


def validate_spread(value, what: str, r: dict, origin: pathlib.Path) -> None:
    """A repeated measurement: positive median, min and max, in order."""
    if not isinstance(value, dict):
        fail(f"{origin}: {what} bad or missing: {r!r}")
    for key in ("median", "min", "max"):
        if not isinstance(value.get(key), (int, float)) or value[key] <= 0:
            fail(f"{origin}: {what}.{key} bad or missing: {r!r}")
    if not value["min"] <= value["median"] <= value["max"]:
        fail(f"{origin}: {what} median outside [min, max]: {r!r}")


def validate_campaign(doc: dict, origin: pathlib.Path) -> dict:
    """Schema check; returns {(campaign, cross_model): median epochs_per_s}."""
    if doc.get("schema") != "tcppred-bench-campaign-v2":
        fail(f"{origin}: bad schema tag: {doc.get('schema')!r}")
    if doc.get("scale") not in ("tiny", "normal"):
        fail(f"{origin}: bad scale: {doc.get('scale')!r}")
    if not isinstance(doc.get("jobs"), int) or doc["jobs"] < 1:
        fail(f"{origin}: bad jobs: {doc.get('jobs')!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail(f"{origin}: runs must be a non-empty list")
    table = {}
    for r in runs:
        for key, typ in (("campaign", int), ("cross_model", str),
                         ("epochs", int), ("repeats", int),
                         ("epochs_per_s", dict)):
            if not isinstance(r.get(key), typ):
                fail(f"{origin}: run field {key} bad or missing: {r!r}")
        if r["cross_model"] not in ("packet", "fluid"):
            fail(f"{origin}: bad cross_model: {r['cross_model']!r}")
        if r["repeats"] < 1:
            fail(f"{origin}: bad repeats: {r!r}")
        validate_spread(r["epochs_per_s"], "epochs_per_s", r, origin)
        table[(r["campaign"], r["cross_model"])] = r["epochs_per_s"]["median"]
    return table


def validate_scheduler(doc: dict, origin: pathlib.Path) -> None:
    if doc.get("schema") != "tcppred-bench-scheduler-v2":
        fail(f"{origin}: bad schema tag: {doc.get('schema')!r}")
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        fail(f"{origin}: benchmarks must be a non-empty list")
    for b in benches:
        if not isinstance(b.get("name"), str):
            fail(f"{origin}: benchmark without a name: {b!r}")
        if not isinstance(b.get("repeats"), int) or b["repeats"] < 1:
            fail(f"{origin}: bad repeats: {b!r}")
        validate_spread(b.get("real_time_ns"), "real_time_ns", b, origin)
        if "items_per_second" in b:
            validate_spread(b["items_per_second"], "items_per_second", b, origin)


def validate_record_store(doc: dict, origin: pathlib.Path) -> None:
    if doc.get("schema") != "tcppred-bench-record-store-v1":
        fail(f"{origin}: bad schema tag: {doc.get('schema')!r}")
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        fail(f"{origin}: benchmarks must be a non-empty list")
    names = set()
    for b in benches:
        if not isinstance(b.get("name"), str):
            fail(f"{origin}: benchmark without a name: {b!r}")
        if not isinstance(b.get("real_time_ns"), (int, float)) or b["real_time_ns"] <= 0:
            fail(f"{origin}: bad real_time_ns: {b!r}")
        if (not isinstance(b.get("records_per_second"), (int, float))
                or b["records_per_second"] <= 0):
            fail(f"{origin}: bad records_per_second: {b!r}")
        names.add(b["name"])
    for required in ("bm_store_ingest", "bm_store_scan"):
        if required not in names:
            fail(f"{origin}: required benchmark missing: {required}")


def validate_serve(doc: dict, origin: pathlib.Path) -> None:
    if doc.get("schema") != "tcppred-bench-serve-v1":
        fail(f"{origin}: bad schema tag: {doc.get('schema')!r}")
    specs = doc.get("specs")
    if not isinstance(specs, list) or not specs \
            or not all(isinstance(s, str) for s in specs):
        fail(f"{origin}: specs must be a non-empty list of strings")
    for key in ("observations", "predictions"):
        if not isinstance(doc.get(key), int) or doc[key] <= 0:
            fail(f"{origin}: bad {key}: {doc.get(key)!r}")
    for key in ("wall_s", "predictions_per_s", "predict_p50_us",
                "predict_p99_us"):
        if not isinstance(doc.get(key), (int, float)) or doc[key] <= 0:
            fail(f"{origin}: bad {key}: {doc.get(key)!r}")
    if doc["predict_p99_us"] < doc["predict_p50_us"]:
        fail(f"{origin}: p99 below p50")


def warn_machine(name: str, committed: dict, fresh: dict) -> None:
    """WARN (never fail) when the two files may come from different hosts."""
    old, new = committed.get("machine"), fresh.get("machine")
    if old is None or new is None:
        print(f"WARN: {name}: {'committed' if old is None else 'fresh'} file carries "
              "no machine stamp; its numbers may come from another host or build")
    elif old != new:
        diff = ", ".join(sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k)))
        print(f"WARN: {name}: machine stamps differ in {diff}; a gap may be hardware")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("committed_dir", type=pathlib.Path)
    ap.add_argument("fresh_dir", type=pathlib.Path)
    ap.add_argument("--factor", type=float, default=2.0,
                    help="max allowed slowdown vs committed (default 2.0)")
    args = ap.parse_args()

    validators = {"BENCH_campaign.json": validate_campaign,
                  "BENCH_scheduler.json": validate_scheduler,
                  "BENCH_record_store.json": validate_record_store,
                  "BENCH_serve.json": validate_serve}
    tables = {}
    for name, validate in validators.items():
        docs = [load(d / name) for d in (args.committed_dir, args.fresh_dir)]
        tables[name] = [validate(doc, d / name)
                        for doc, d in zip(docs, (args.committed_dir, args.fresh_dir))]
        warn_machine(name, *docs)
    committed, fresh = tables["BENCH_campaign.json"]

    failed = False
    for key, old in sorted(committed.items()):
        new = fresh.get(key)
        if new is None:
            print(f"MISSING: campaign {key[0]} ({key[1]}) absent from fresh run",
                  file=sys.stderr)
            failed = True
            continue
        ratio = old / new
        verdict = "FAIL" if ratio > args.factor else "ok"
        print(f"{verdict}: campaign {key[0]} ({key[1]}): median "
              f"{new:.1f} epochs/s vs committed {old:.1f} "
              f"({ratio:.2f}x slower, limit {args.factor:.1f}x)")
        if ratio > args.factor:
            failed = True
    if failed:
        sys.exit(1)
    print("perf smoke passed")


if __name__ == "__main__":
    main()
