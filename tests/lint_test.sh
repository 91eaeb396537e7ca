#!/usr/bin/env bash
# Self-test for tcppred_lint against the fixture tree in tests/lint_fixtures/.
#
# Asserts the full CLI contract:
#   exit 0  clean fixtures and suppressed violations produce no findings
#   exit 1  each bad_<rule> fixture fires exactly its named rule
#   exit 2  usage errors, unknown paths, malformed configs
#
# Usage: lint_test.sh /path/to/tcppred_lint
set -u

if [ $# -ne 1 ]; then
    echo "usage: $0 TCPPRED_LINT_BINARY" >&2
    exit 2
fi
LINT=$1
HERE="$(cd "$(dirname "$0")" && pwd)"
ROOT="$HERE/lint_fixtures"
CONF="$ROOT/fixtures.conf"
failures=0

note_fail() {
    echo "FAIL $1"
    shift
    printf '%s\n' "$@" | sed 's/^/    /'
    failures=$((failures + 1))
}

# run <desc> <want_rc> <cmd...>; captures stdout into $out for callers.
run() {
    local desc=$1 want_rc=$2
    shift 2
    out=$("$@" 2>/dev/null)
    local rc=$?
    if [ "$rc" -ne "$want_rc" ]; then
        note_fail "$desc: exit $rc, want $want_rc" "$out"
        return 1
    fi
    echo "ok   $desc (exit $rc)"
}

# Every bad fixture must exit 1 and every reported finding must carry the
# expected rule id — a stray second rule firing is a self-test failure.
for rule in det-rng det-clock det-env det-thread det-unordered-iter \
            ser-hexfloat units-boundary layer-include; do
    stem=bad_$(printf '%s' "$rule" | tr - _)
    fixture=$(find "$ROOT/src" -name "$stem.*" | head -1)
    if [ -z "$fixture" ]; then
        note_fail "$rule: fixture $stem.* not found"
        continue
    fi
    rel=${fixture#"$ROOT"/}
    if run "$rule fires on $rel" 1 \
           "$LINT" --root "$ROOT" --config "$CONF" "$rel"; then
        if [ -z "$out" ]; then
            note_fail "$rule: exit 1 but no findings printed"
        elif printf '%s\n' "$out" | grep -qv "\[$rule\]"; then
            note_fail "$rule: a finding carries the wrong rule id" "$out"
        fi
        # A fixture that marks its violating lines with "// fires" must get
        # exactly one finding per marked line.
        want=$(grep -c '// fires' "$fixture")
        got=$(printf '%s\n' "$out" | grep -c "\[$rule\]")
        if [ "$want" -gt 0 ] && [ "$got" -ne "$want" ]; then
            note_fail "$rule: $got finding(s), want $want (one per '// fires' line)" "$out"
        fi
    fi
done

# Clean and suppressed fixtures: no findings, exit 0.
for rel in src/alpha/alpha.hpp src/alpha/clean.cpp src/alpha/suppressed.cpp \
           tests/std_random_reference.cpp; do
    run "clean: $rel" 0 "$LINT" --root "$ROOT" --config "$CONF" "$rel" || true
done

# Usage/config errors: exit 2.
run "unknown option" 2 "$LINT" --bogus || true
run "missing path" 2 \
    "$LINT" --root "$ROOT" --config "$CONF" src/no/such/file.cpp || true
run "malformed config" 2 \
    "$LINT" --root "$ROOT" --config "$ROOT/bad.conf" src/alpha/clean.cpp || true

# --list-rules prints the whole catalogue.
if run "--list-rules" 0 "$LINT" --list-rules; then
    for rule in det-rng det-clock det-env det-thread det-unordered-iter \
                ser-hexfloat units-boundary layer-include; do
        if ! printf '%s\n' "$out" | grep -q "^$rule "; then
            note_fail "--list-rules: missing $rule" "$out"
        fi
    done
fi

if [ "$failures" -ne 0 ]; then
    echo "lint_test: $failures failure(s)" >&2
    exit 1
fi
echo "lint_test: all checks passed"
