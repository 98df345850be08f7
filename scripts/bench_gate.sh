#!/usr/bin/env bash
# Perf-regression gate, three layers:
#
#  1. Headline throughput — re-measures the engine's smoke workload and
#     fails when incremental-scheduler events/sec regressed more than
#     MAX_REGRESSION_PCT against the committed reference in
#     BENCH_hotloop.json (the "gate_reference_quick" leg, produced by
#     `cargo run --release -p ckpt-bench --bin bench_hotloop`).
#  1b. Execution modes — repeats the same measurement for each
#     committed "gate_modes" entry (non-default reactivation modes:
#     lazy), gating every mode at the same budget. bench_engines
#     asserts scheduler bit-identity in each mode as it runs.
#  2. Per-phase attribution — re-measures the hot-phase breakdown with a
#     `--features prof` build and fails when any attributed phase's
#     ns/event regressed more than MAX_REGRESSION_PCT against the
#     committed BENCH_phases.json (incremental leg). This catches a
#     regression that hides inside the headline number — e.g. a 30%
#     slower reconciliation paid for by a faster queue — and pinpoints
#     the phase that moved.
#
# Usage: scripts/bench_gate.sh [extra bench_engines flags...]
#
# The measurement is `bench_engines --quick --warmup 1` — small enough
# for every PR, warm enough that cold-start noise stays out. Because
# events/sec is host-dependent, the gate only *fails* on hosts with
# real parallelism (CI runners); on single-core hosts, or when
# BENCH_GATE_REPORT_ONLY=1, it reports the comparison without failing.
#
# The committed headline reference was recorded with the telemetry
# probes compiled OUT (the default feature set). The gate builds the
# same default set and then *asserts* the measured binary reports
# telemetry_probes=false, so the hot loop being compared is the one
# the reference measured — a telemetry-enabled build would gate its
# probe overhead against a probe-free baseline and fail spuriously
# (or, worse, hide a real regression behind a refreshed reference).
#
# The phase leg runs from a scratch directory: a profiled bench_engines
# also rewrites BENCH_engines.json, and instrumented wall times must
# never clobber the headline artifact.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
max_regression_pct="${MAX_REGRESSION_PCT:-15}"
ref_file="$repo/BENCH_hotloop.json"
ref_phases="$repo/BENCH_phases.json"

if [ ! -f "$ref_file" ]; then
  echo "bench_gate: no $ref_file — run bench_hotloop to create the reference" >&2
  exit 2
fi

report_only() {
  cores="$(nproc 2>/dev/null || echo 1)"
  [ "${BENCH_GATE_REPORT_ONLY:-0}" = "1" ] || [ "$cores" -le 1 ]
}

# --- References: read BEFORE any regeneration touches the artifacts ---

ref_eps="$(python3 - "$ref_file" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
print(int(doc["gate"]["events_per_sec"]))
EOF
)"

# Per-phase ns/event of the committed incremental leg (schema >= 2).
# Empty output skips the phase gate (no reference yet / old schema).
ref_phase_rows=""
if [ -f "$ref_phases" ]; then
  ref_phase_rows="$(python3 - "$ref_phases" <<'EOF'
import json, sys
docs = json.load(open(sys.argv[1]))
for doc in docs:
    if doc.get("label", "").endswith("-incremental") \
       and doc.get("phase_schema_version", 0) >= 2:
        for p in doc["phases"]:
            print(f'{p["phase"]} {p["ns_per_event"]}')
EOF
)"
fi

# --- Layer 1: headline events/sec -------------------------------------

(cd "$repo" && cargo build --release -p ckpt-bench --bin bench_engines >&2)
(cd "$repo" && ./target/release/bench_engines --quick --warmup 1 "$@" >/dev/null)

cur_eps="$(python3 - "$repo/BENCH_engines.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc.get("telemetry_probes", False):
    sys.exit("bench_gate: measured binary has telemetry probes compiled in; "
             "the gate compares against a probe-free reference — rebuild "
             "without --features telemetry")
[inc] = [r for r in doc["runs"] if r["scheduler"] == "incremental"]
print(int(inc["events_per_sec"]))
EOF
)"

verdict="$(awk -v cur="$cur_eps" -v ref="$ref_eps" -v max="$max_regression_pct" \
  'BEGIN {
     drop = 100.0 * (ref - cur) / ref;
     printf "reference %d ev/s, measured %d ev/s, change %+.1f%%\n", ref, cur, -drop;
     exit (drop > max) ? 1 : 0;
   }')" && pass=0 || pass=1
echo "bench_gate: $verdict (budget: ${max_regression_pct}% regression)"

if [ "$pass" -ne 0 ]; then
  if report_only; then
    echo "bench_gate: REGRESSION over budget, but report-only" \
         "(cores=$(nproc 2>/dev/null || echo 1), BENCH_GATE_REPORT_ONLY=${BENCH_GATE_REPORT_ONLY:-0})" >&2
  else
    echo "bench_gate: FAIL — events/sec regressed more than ${max_regression_pct}%" >&2
    echo "bench_gate: if intentional, refresh the reference with" \
         "'cargo run --release -p ckpt-bench --bin bench_hotloop'" >&2
    exit 1
  fi
fi

# --- Layer 1b: execution-mode matrix ----------------------------------

# Committed per-mode references: "leg reactivation events_per_sec"
# rows. Empty output (pre-matrix reference file) skips the layer.
ref_mode_rows="$(python3 - "$ref_file" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for g in doc.get("gate_modes", []):
    print(g["leg"], g["reactivation"], int(g["events_per_sec"]))
EOF
)"

if [ -n "$ref_mode_rows" ]; then
  mode_verdict=0
  while read -r leg reactivation mode_ref_eps; do
    [ -n "$leg" ] || continue
    (cd "$repo" && ./target/release/bench_engines --quick --warmup 1 \
       --reactivation "$reactivation" "$@" >/dev/null)
    mode_cur_eps="$(python3 - "$repo/BENCH_engines.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
[inc] = [r for r in doc["runs"] if r["scheduler"] == "incremental"]
print(int(inc["events_per_sec"]))
EOF
)"
    mode_line="$(awk -v cur="$mode_cur_eps" -v ref="$mode_ref_eps" -v max="$max_regression_pct" \
      'BEGIN {
         drop = 100.0 * (ref - cur) / ref;
         printf "reference %d ev/s, measured %d ev/s, change %+.1f%%", ref, cur, -drop;
         exit (drop > max) ? 1 : 0;
       }')" && mode_pass=0 || mode_pass=1
    echo "bench_gate: mode $reactivation: $mode_line"
    if [ "$mode_pass" -ne 0 ]; then
      mode_verdict=1
      worst_mode="$reactivation"
    fi
  done <<< "$ref_mode_rows"
  # The mode runs clobbered BENCH_engines.json with non-default modes;
  # restore the default-mode artifact so layer 1's output is what stays
  # on disk after the gate.
  (cd "$repo" && ./target/release/bench_engines --quick --warmup 1 "$@" >/dev/null)
  if [ "$mode_verdict" -ne 0 ]; then
    if report_only; then
      echo "bench_gate: MODE REGRESSION over budget, but report-only" \
           "(cores=$(nproc 2>/dev/null || echo 1), BENCH_GATE_REPORT_ONLY=${BENCH_GATE_REPORT_ONLY:-0})" >&2
    else
      echo "bench_gate: FAIL — mode '$worst_mode' regressed more than ${max_regression_pct}%" >&2
      echo "bench_gate: if intentional, refresh the reference with" \
           "'cargo run --release -p ckpt-bench --bin bench_hotloop'" >&2
      exit 1
    fi
  fi
else
  echo "bench_gate: no gate_modes in $ref_file — mode-matrix gate skipped"
fi

# --- Layer 2: per-phase ns/event --------------------------------------

if [ -z "$ref_phase_rows" ]; then
  echo "bench_gate: no per-phase reference in $ref_phases (schema >= 2) — phase gate skipped"
  echo "bench_gate: OK"
  exit 0
fi

(cd "$repo" && cargo build --release -p ckpt-bench --features prof --bin bench_engines >&2)
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
(cd "$scratch" && "$repo/target/release/bench_engines" --quick --warmup 1 --phases "$@" >/dev/null)

phase_verdict=0
python3 - "$scratch/BENCH_phases.json" "$max_regression_pct" <<EOF || phase_verdict=1
import json, sys
ref = {}
for line in """$ref_phase_rows""".strip().splitlines():
    name, ns = line.split()
    ref[name] = float(ns)
docs = json.load(open(sys.argv[1]))
max_pct = float(sys.argv[2])
[inc] = [d for d in docs if d.get("label", "").endswith("-incremental")]
# Phases under this floor are measurement noise at --quick scale.
NOISE_FLOOR_NS = 2.0
worst = None
for p in inc["phases"]:
    name, cur = p["phase"], float(p["ns_per_event"])
    if name not in ref or ref[name] < NOISE_FLOOR_NS:
        continue
    change = 100.0 * (cur - ref[name]) / ref[name]
    flag = " <-- OVER BUDGET" if change > max_pct else ""
    print(f"bench_gate: phase {name:<26} ref {ref[name]:8.1f} ns/ev, "
          f"measured {cur:8.1f} ns/ev, change {change:+6.1f}%{flag}")
    if change > max_pct and (worst is None or change > worst[1]):
        worst = (name, change)
if worst:
    sys.exit(f"bench_gate: phase '{worst[0]}' regressed {worst[1]:.1f}% "
             f"(budget {max_pct}%)")
EOF

if [ "$phase_verdict" -ne 0 ]; then
  if report_only; then
    echo "bench_gate: PHASE REGRESSION over budget, but report-only" \
         "(cores=$(nproc 2>/dev/null || echo 1), BENCH_GATE_REPORT_ONLY=${BENCH_GATE_REPORT_ONLY:-0})" >&2
  else
    echo "bench_gate: FAIL — a hot phase regressed more than ${max_regression_pct}% ns/event" >&2
    echo "bench_gate: if intentional, refresh the reference with" \
         "'cargo run --release -p ckpt-bench --features prof --bin bench_engines -- --phases'" >&2
    exit 1
  fi
fi
echo "bench_gate: OK"
