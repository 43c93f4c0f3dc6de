#!/usr/bin/env bash
# Tier-1 gate: Release build, full test suite, and one fast full-grid
# sweep whose per-cell rows land in bench_results.json.
#
# Usage: scripts/run_tier1.sh [build-dir]
#
# Environment:
#   DEUCE_BENCH_THREADS  worker count for the sweep (default: all)
#   DEUCE_TSAN=1         additionally build with ThreadSanitizer and
#                        run the concurrency tests under it
#   DEUCE_ASAN=1         additionally build with ASan+UBSan and run
#                        the fault, sweep, Merkle-tree and persist
#                        recovery tests under it
#   DEUCE_UBSAN=1        additionally build with UBSan alone (traps
#                        fatal) and run the line-kernel differential,
#                        fuzz-consistency, Merkle-tree and persist
#                        tests under it

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-tier1}"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j "$(nproc)"

ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

# Full-grid smoke sweep: every Table 2 benchmark x the three headline
# schemes, fast pads, rows emitted as JSON Lines.
"$build/examples/simulate" \
    --bench all --scheme encr,encr-fnw,deuce \
    --fast-otp --writebacks 10000 \
    --json "$build/bench_results.json" \
    > /dev/null
rows=$(wc -l < "$build/bench_results.json")
echo "tier1: sweep wrote $rows rows to $build/bench_results.json"

# One fast end-of-life cell: the fault model enabled at a scaled-down
# endurance so cells actually wear out. DEUCE_BENCH_JSON appends, so
# its row lands after the grid rows above.
DEUCE_BENCH_JSON="$build/bench_results.json" "$build/examples/simulate" \
    --bench mcf --scheme deuce \
    --fault --ecp 4 --endurance 200 \
    --fast-otp --writebacks 10000 \
    > /dev/null
rows=$(wc -l < "$build/bench_results.json")
echo "tier1: fault cell appended (now $rows rows)"

# MLC smoke cells: the 2-bit cell model with DEUCE and both Virtual
# Coset Coding cost models. The rows carry the gated MLC fields
# (cell_tech, transition energy, avg pJ/write); the SLC grid rows
# above stay byte-identical to the pre-MLC format.
DEUCE_BENCH_JSON="$build/bench_results.json" "$build/examples/simulate" \
    --bench mcf --scheme deuce,vcc,vcc-mlc \
    --cell-tech mlc2 \
    --fast-otp --writebacks 10000 \
    > /dev/null
rows=$(wc -l < "$build/bench_results.json")
echo "tier1: MLC2 cells appended (now $rows rows)"

# Coset-coding energy crossover gate: bench_related's MLC table
# enforces three rankings (DEUCE <= VCC on SLC, VCC < DEUCE on MLC2,
# MLC-cost < Hamming selection on MLC2) and exits nonzero on any
# regression. The micro benchmarks are filtered out; only the sweeps
# and their gates run.
DEUCE_BENCH_WB=20000 "$build/bench/bench_related" \
    --benchmark_filter='^$' \
    > /dev/null || {
        echo "tier1: FAIL — VCC/MLC energy-crossover gate" >&2
        exit 1
    }
echo "tier1: VCC/MLC energy-crossover gate OK"

# Perf smoke: the AES backend micro benchmarks (the scalar reference,
# plus aesni and vaes when the host has them) and the line-kernel
# backends (scalar, plus avx2 when the host has it), min-time trimmed
# so the whole pass is a few seconds. Timings are informational — appended as BENCH_MICRO
# cells to bench_results.json, never a pass/fail criterion: absolute
# numbers vary with the host and a slow kernel is still correct.
"$build/bench/bench_micro" \
    --benchmark_filter='BM_Aes|BM_PadForLine|BM_Line' \
    --benchmark_min_time=0.05 \
    --benchmark_format=json > "$build/bench_micro.json" || {
        echo "tier1: FAIL — bench_micro did not run" >&2
        exit 1
    }
python3 - "$build/bench_micro.json" "$build/bench_results.json" <<'PY'
import json
import sys

data = json.load(open(sys.argv[1]))
rows = 0
with open(sys.argv[2], "a") as out:
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        row = {
            "bench": "BENCH_MICRO",
            "scheme": b["name"],
            "real_time_ns": b.get("real_time"),
            "cpu_time_ns": b.get("cpu_time"),
            "iterations": b.get("iterations"),
        }
        if b.get("error_occurred"):
            # e.g. the aesni captures on a host without AES-NI.
            row["error"] = b.get("error_message", "")
        out.write(json.dumps(row) + "\n")
        rows += 1
print(f"tier1: appended {rows} BENCH_MICRO cells")
PY

# Backend equivalence gate: the same cell simulated through the scalar
# reference and the auto-dispatched cipher must produce byte-identical
# result rows modulo the aes_backend name. This is the only failing
# check of the perf-smoke step.
"$build/examples/simulate" \
    --bench mcf --scheme deuce --writebacks 5000 \
    --aes-backend scalar --json "$build/equiv_scalar.jsonl" > /dev/null
"$build/examples/simulate" \
    --bench mcf --scheme deuce --writebacks 5000 \
    --aes-backend auto --json "$build/equiv_auto.jsonl" > /dev/null
strip_backend='s/,"aes_backend":"[a-z-]*"//;s/,"line_backend":"[a-z0-9]*"//;s/,"write_batch":[0-9]*//'
if ! diff \
    <(sed "$strip_backend" "$build/equiv_scalar.jsonl") \
    <(sed "$strip_backend" "$build/equiv_auto.jsonl"); then
    echo "tier1: FAIL — scalar and auto AES backends disagree" >&2
    exit 1
fi
echo "tier1: AES backend equivalence OK (scalar == auto)"

# Same gate for the line-kernel registry: the scalar reference and the
# auto-dispatched SIMD backend must produce byte-identical rows modulo
# the backend-name fields. A flip-count divergence here means a SIMD
# popcount drifted from the reference — a hard failure.
"$build/examples/simulate" \
    --bench mcf --scheme deuce,deuce-fnw --writebacks 5000 \
    --fast-otp --line-backend scalar \
    --json "$build/equiv_line_scalar.jsonl" > /dev/null
"$build/examples/simulate" \
    --bench mcf --scheme deuce,deuce-fnw --writebacks 5000 \
    --fast-otp --line-backend auto \
    --json "$build/equiv_line_auto.jsonl" > /dev/null
if ! diff \
    <(sed "$strip_backend" "$build/equiv_line_scalar.jsonl") \
    <(sed "$strip_backend" "$build/equiv_line_auto.jsonl"); then
    echo "tier1: FAIL — scalar and auto line backends disagree" >&2
    exit 1
fi
echo "tier1: line backend equivalence OK (scalar == auto)"

# Batch-pipeline equivalence gate, over every scheme id: write() is a
# burst of one through the same commit loop as writeBatch(), so
# replaying the same cells one write at a time (--batch 1) and through
# 64-line bursts must produce byte-identical rows modulo the
# write_batch/backend-name fields. A divergence means chunking (the
# duplicate-address split, the shared pad stream, the deferred wear
# landing) changed a result — a hard failure.
batch_schemes=nodcw,nofnw,encr,encr-fnw,ble,ble-deuce,deuce,deuce-fnw
batch_schemes=$batch_schemes,dyndeuce,addrpad,invmm,perword,vcc,vcc-mlc
"$build/examples/simulate" \
    --bench mcf --scheme "$batch_schemes" --writebacks 5000 \
    --fast-otp --batch 1 \
    --json "$build/equiv_batch_seq.jsonl" > /dev/null
"$build/examples/simulate" \
    --bench mcf --scheme "$batch_schemes" --writebacks 5000 \
    --fast-otp --batch 64 \
    --json "$build/equiv_batch_64.jsonl" > /dev/null
if ! diff \
    <(sed "$strip_backend" "$build/equiv_batch_seq.jsonl") \
    <(sed "$strip_backend" "$build/equiv_batch_64.jsonl"); then
    echo "tier1: FAIL — batched and sequential write paths disagree" >&2
    exit 1
fi
echo "tier1: batch pipeline equivalence OK (batch 1 == batch 64)"

# Write-path throughput: lines/sec per scheme at batch {1,16,64} on
# the auto cipher backend. bench_throughput itself enforces two hard
# gates — bit-identical counter signatures across batch sizes, and
# >= 1.5x lines/sec for encr and deuce at batch >= 16. Cells append
# to the BENCH trajectory, and the auto-backend lines/sec per scheme
# land in BENCH_THROUGHPUT.json.
DEUCE_BENCH_JSON="$build/bench_results.json" "$build/bench/bench_throughput" \
    --writes 100000 \
    > /dev/null || {
        echo "tier1: FAIL — throughput bit-identity/speedup gate" >&2
        exit 1
    }
python3 - "$build/bench_results.json" \
    "$build/BENCH_THROUGHPUT.json" <<'PY'
import json
import sys

summary = {}
for line in open(sys.argv[1]):
    row = json.loads(line)
    if row.get("bench") != "THROUGHPUT":
        continue
    per = summary.setdefault(row["scheme"], {})
    per[f"batch{row['write_batch']}_lines_per_sec"] = \
        row["lines_per_sec"]
    per["aes_backend"] = row["aes_backend"]
with open(sys.argv[2], "w") as out:
    json.dump(summary, out, indent=2, sort_keys=True)
    out.write("\n")
print(f"tier1: throughput summary for {len(summary)} schemes "
      f"-> {sys.argv[2]}")
PY
rows=$(wc -l < "$build/bench_results.json")
echo "tier1: throughput gate OK (now $rows rows)"

# Observability smoke: a small multi-threaded sweep with span tracing
# and progress reporting on. The Chrome trace must be valid JSON and
# every begin event must have a matching end on its thread — an
# unbalanced trace means a span leaked across the sweep teardown.
"$build/examples/simulate" \
    --bench mcf --scheme encr,encr-fnw,deuce,dyndeuce \
    --fast-otp --writebacks 2000 --threads 4 \
    --trace-out "$build/tier1_trace.json" --progress \
    > /dev/null 2> "$build/tier1_progress.log"
python3 - "$build/tier1_trace.json" <<'PY'
import collections
import json
import sys

trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "trace has no events"
depth = collections.Counter()
for ev in events:
    assert ev["ph"] in ("B", "E"), ev
    depth[ev["tid"]] += 1 if ev["ph"] == "B" else -1
    assert depth[ev["tid"]] >= 0, f"end before begin on tid {ev['tid']}"
assert all(d == 0 for d in depth.values()), f"unbalanced spans: {depth}"
names = {ev["name"] for ev in events}
assert "sweep.cell" in names, names
print(f"tier1: trace OK ({len(events)} events, "
      f"{len(depth)} threads, spans balanced)")
PY
grep -q 'cells' "$build/tier1_progress.log" || {
    echo "tier1: FAIL — no progress heartbeat on stderr" >&2
    exit 1
}
echo "tier1: progress heartbeat OK"

# Span trace + flight recorder on one 3-thread sweep. Both dumps come
# from one per-thread event log, so a thread has one tid in both and
# every timestamp shares one clock epoch: each flight tid must be a
# span-trace tid, and each flight write must fall inside a sweep.cell
# span on its own thread.
rm -f "$build/tier1_both_trace.json" "$build/tier1_both_flight.json"
DEUCE_FLIGHT_RECORDER="$build/tier1_both_flight.json" \
"$build/examples/simulate" \
    --bench mcf --scheme encr,encr-fnw,deuce,dyndeuce \
    --fast-otp --writebacks 2000 --threads 3 \
    --trace-out "$build/tier1_both_trace.json" > /dev/null
python3 - "$build/tier1_both_trace.json" \
    "$build/tier1_both_flight.json" <<'PY'
import collections
import json
import sys

spans = json.load(open(sys.argv[1]))["traceEvents"]
flight = json.load(open(sys.argv[2]))["traceEvents"]
open_cells = collections.defaultdict(list)
cells = collections.defaultdict(list)
for ev in spans:
    if ev["name"] != "sweep.cell":
        continue
    if ev["ph"] == "B":
        open_cells[ev["tid"]].append(ev["ts"])
    else:
        cells[ev["tid"]].append((open_cells[ev["tid"]].pop(), ev["ts"]))
span_tids = {ev["tid"] for ev in spans}
flight_tids = {ev["tid"] for ev in flight}
assert flight_tids <= span_tids, \
    f"flight tids {flight_tids} not all in span tids {span_tids}"
writes = [ev for ev in flight if ev["name"] == "write"]
assert writes, "flight dump has no write events"
for ev in writes:
    assert any(b <= ev["ts"] <= e for b, e in cells[ev["tid"]]), \
        f"write outside every sweep.cell span on its tid: {ev}"
print(f"tier1: trace+flight OK ({len(writes)} writes inside their "
      f"cells on {len(flight_tids)} shared tids)")
PY

# A fatal configuration error must exit 1 with a message, not abort:
# returning from main runs the exit hooks, so the configured span
# trace and flight dump are still written as valid JSON.
rm -f "$build/tier1_fatal_trace.json" "$build/tier1_fatal_flight.json"
status=0
DEUCE_FLIGHT_RECORDER="$build/tier1_fatal_flight.json" \
"$build/examples/simulate" --bench nosuch --scheme deuce --fast-otp \
    --trace-out "$build/tier1_fatal_trace.json" \
    > /dev/null 2> "$build/tier1_fatal.log" || status=$?
if [[ "$status" != 1 ]] ||
    ! grep -q '^deuce: fatal: ' "$build/tier1_fatal.log"; then
    echo "tier1: FAIL — fatal error exited $status (want 1)" >&2
    exit 1
fi
python3 -c 'import json, sys; [json.load(open(p)) for p in sys.argv[1:]]' \
    "$build/tier1_fatal_trace.json" "$build/tier1_fatal_flight.json"
echo "tier1: fatal exit OK (status 1, trace and flight dumps written)"

# Hostile CLI values must be rejected, not coerced: junk after a
# number, a sign on an unsigned flag, a non-number, a non-finite real
# and removed backend names each print the usage line and exit 2.
hostile_cli() {
    local status=0
    "$build/examples/simulate" --bench mcf --scheme deuce --fast-otp \
        --writebacks 100 "$@" \
        > /dev/null 2> "$build/tier1_hostile.log" || status=$?
    if [[ "$status" != 2 ]] ||
        ! grep -q '^usage: ' "$build/tier1_hostile.log"; then
        echo "tier1: FAIL — simulate $* exited $status (want 2 + usage)" >&2
        exit 1
    fi
}
hostile_cli --writebacks 12x
hostile_cli --seed -1
hostile_cli --batch abc
hostile_cli --mlp nan
hostile_cli --aes-backend ttable
hostile_cli --line-backend sse2
echo "tier1: hostile CLI OK (6 bad values rejected with status 2)"

# Trace overhead cell: the same sweep with tracing compiled in but
# disabled vs enabled, appended as BENCH_MICRO rows. Informational
# only — never a pass/fail gate (wall clock varies with the host).
overhead_run() {
    local start end
    start=$(date +%s%N)
    "$build/examples/simulate" \
        --bench mcf --scheme deuce \
        --fast-otp --writebacks 20000 --threads 2 \
        "$@" > /dev/null
    end=$(date +%s%N)
    echo $(( end - start ))
}
off_ns=$(overhead_run)
on_ns=$(overhead_run --trace-out "$build/tier1_trace_on.json")
python3 - "$off_ns" "$on_ns" "$build/bench_results.json" <<'PY'
import json
import sys

off_ns, on_ns = int(sys.argv[1]), int(sys.argv[2])
with open(sys.argv[3], "a") as out:
    for name, ns in (("trace_off", off_ns), ("trace_on", on_ns)):
        out.write(json.dumps({
            "bench": "BENCH_MICRO",
            "scheme": f"BM_SweepOverhead/{name}",
            "real_time_ns": ns,
            "cpu_time_ns": None,
            "iterations": 1,
        }) + "\n")
pct = 100.0 * (on_ns - off_ns) / off_ns
print(f"tier1: trace overhead cells appended "
      f"(on vs off: {pct:+.1f}%, informational)")
PY

# Serving smoke: the sharded queue-driven core at 1, 4 and 8 shards.
# bench_serving itself gates bit-identical aggregate counters between
# the sharded run and a single-threaded sequential replay (exit 1 on
# divergence); its ops/sec + tail-latency cells append to the BENCH
# trajectory via DEUCE_BENCH_JSON. Live telemetry runs alongside at a
# fast period so the scrape checks below have several ticks to chew.
rm -f "$build/tier1_telemetry.prom" "$build/tier1_telemetry.jsonl"
DEUCE_BENCH_JSON="$build/bench_results.json" "$build/bench/bench_serving" \
    --shards 1,4,8 --tenants 1,4 --clients 2 \
    --ops 20000 --fast-otp \
    --telemetry-out "$build/tier1_telemetry" --telemetry-period-ms 10 \
    > /dev/null || {
        echo "tier1: FAIL — serving determinism gate" >&2
        exit 1
    }
rows=$(wc -l < "$build/bench_results.json")
echo "tier1: serving smoke OK at 1/4/8 shards (now $rows rows)"

# Telemetry smoke: the Prometheus scrape file must parse (every
# announced metric sampled, every value numeric) and the JSONL time
# series must show monotone counters within each cell's run (the
# sampler seq restarts at 1 when a new cell attaches).
python3 - "$build/tier1_telemetry.prom" \
    "$build/tier1_telemetry.jsonl" <<'PY'
import json
import sys

types, values = {}, {}
for line in open(sys.argv[1]):
    parts = line.split()
    if line.startswith("#"):
        assert parts[:2] == ["#", "TYPE"] and \
            parts[3] in ("counter", "gauge"), line
        types[parts[2]] = parts[3]
    else:
        assert len(parts) == 2, line
        values[parts[0]] = float(parts[1])
assert types, "empty prom scrape"
missing = set(types) - set(values)
assert not missing, f"announced but never sampled: {missing}"
assert any(t == "counter" for t in types.values()), types

ticks = 0
prev = {}
for line in open(sys.argv[2]):
    tick = json.loads(line)
    ticks += 1
    if tick["seq"] == 1:
        prev = {}  # a new cell attached a fresh sampler
    for name, v in tick["stats"].items():
        assert v["v"] >= prev.get(name, 0), \
            f"counter {name} went backwards"
        prev[name] = v["v"]
assert ticks > 0, "no jsonl ticks"
print(f"tier1: telemetry OK ({len(types)} metrics, {ticks} ticks, "
      f"counters monotone)")
PY

# Telemetry overhead cell: one 4-shard serving cell with the sampler
# off vs on at the default 100 ms period, appended as BENCH_MICRO
# rows. Informational only — the target is <= 1% ops/sec, but wall
# clock varies with the host so this never gates.
telemetry_cell() {
    DEUCE_BENCH_JSON="$build/telemetry_overhead.jsonl" \
        "$build/bench/bench_serving" \
        --shards 4 --tenants 4 --clients 2 \
        --ops 40000 --fast-otp "$@" > /dev/null
}
rm -f "$build/telemetry_overhead.jsonl"
telemetry_cell
telemetry_cell --telemetry-out "$build/tier1_overhead_telemetry" \
    --telemetry-period-ms 100
python3 - "$build/telemetry_overhead.jsonl" \
    "$build/bench_results.json" <<'PY'
import json
import sys

rows = [json.loads(l) for l in open(sys.argv[1])]
off, on = rows[0]["ops_per_sec"], rows[1]["ops_per_sec"]
pct = 100.0 * (off - on) / off
with open(sys.argv[2], "a") as out:
    for name, ops in (("telemetry_off", off), ("telemetry_on", on)):
        out.write(json.dumps({
            "bench": "BENCH_MICRO",
            "scheme": f"BM_TelemetryOverhead/{name}",
            "ops_per_sec": ops,
            "iterations": 1,
        }) + "\n")
print(f"tier1: telemetry overhead cells appended "
      f"(on vs off: {pct:+.1f}% ops/sec, informational)")
PY

# Crash-consistency smoke: bench_crash's Part A (persistence-policy
# runtime cost) and Part B (crash at a seeded write index + recovery)
# with their hard gates on — write-through must cost more runtime
# than lazy and show a zero pad-reuse window, lazy must show a
# non-zero one. CRASH cells append to the trajectory file.
DEUCE_BENCH_JSON="$build/bench_results.json" \
DEUCE_BENCH_WB=4000 "$build/bench/bench_crash" \
    --benchmark_filter='^$' \
    > /dev/null || {
        echo "tier1: FAIL — crash/recovery gate" >&2
        exit 1
    }
rows=$(wc -l < "$build/bench_results.json")
echo "tier1: crash/recovery smoke OK (now $rows rows)"

# Flight-recorder smoke: re-run a tiny crash bench with the recorder
# armed. Every injected crash dumps the rings, so the file must be
# valid Chrome-trace JSON whose final events include the pre-crash
# writes and the crash marker itself. Single-threaded so the write
# events land in one ring in submission order.
rm -f "$build/tier1_flight.json"
DEUCE_FLIGHT_RECORDER="$build/tier1_flight.json" \
DEUCE_BENCH_THREADS=1 DEUCE_BENCH_WB=1500 "$build/bench/bench_crash" \
    > /dev/null || {
        echo "tier1: FAIL — crash bench under flight recorder" >&2
        exit 1
    }
python3 - "$build/tier1_flight.json" <<'PY'
import json
import sys

dump = json.load(open(sys.argv[1]))
events = dump["traceEvents"]
assert events, "flight dump is empty"
names = [ev["name"] for ev in events]
assert "write" in names, f"no write events in {set(names)}"
assert "crash" in names, f"no crash event in {set(names)}"
last_crash = len(names) - 1 - names[::-1].index("crash")
assert "write" in names[:last_crash], \
    "crash dump must carry the pre-crash writes"
for ev in events:
    assert ev["ph"] == "i", ev
print(f"tier1: flight dump OK ({len(events)} events, "
      f"{names.count('crash')} crashes captured)")
PY

if [[ "${DEUCE_TSAN:-0}" == "1" ]]; then
    tsan="$build-tsan"
    cmake -B "$tsan" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDEUCE_TSAN=ON
    cmake --build "$tsan" -j "$(nproc)" \
        --target test_thread_pool test_sweep test_spsc_queue \
                 test_serving test_persist test_write_batch \
                 test_vcc test_telemetry test_flight_recorder \
                 test_obs_trace stolen_dimm_attack bench_serving
    "$tsan/tests/test_thread_pool"
    "$tsan/tests/test_sweep"
    "$tsan/tests/test_spsc_queue"
    "$tsan/tests/test_serving"
    # Live sampling races by design (relaxed atomics, concurrent
    # snapshot reads): the telemetry and flight-recorder suites must
    # be TSan-clean, including the sampler-vs-worker serving test.
    # Spans share the flight recorder's per-thread event log, so the
    # span suite runs here too.
    "$tsan/tests/test_telemetry"
    "$tsan/tests/test_flight_recorder"
    "$tsan/tests/test_obs_trace"
    # The batch pipeline itself is single-threaded per shard, but the
    # serving workers drive it concurrently — run its bit-identity
    # suite under TSan alongside the worker tests.
    "$tsan/tests/test_write_batch"
    # The coset scheme's selection path (candidate generation + aux
    # re-randomisation) runs inside multi-threaded sweeps and the
    # batch pipeline: its property suite must be TSan-clean too.
    "$tsan/tests/test_vcc"
    # Crash-at-every-index determinism races recovery cells across
    # threads; the attack example is a one-crash recovery smoke.
    "$tsan/tests/test_persist"
    "$tsan/examples/stolen_dimm_attack" > /dev/null
    # Serving smoke under TSan: client threads + 4 shard workers
    # hammering the SPSC queue-pairs, determinism gate still on.
    "$tsan/bench/bench_serving" \
        --shards 4 --tenants 4 --clients 2 \
        --ops 5000 --fast-otp > /dev/null
    echo "tier1: TSan concurrency tests passed"
fi

if [[ "${DEUCE_ASAN:-0}" == "1" ]]; then
    asan="$build-asan"
    cmake -B "$asan" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDEUCE_ASAN=ON
    cmake --build "$asan" -j "$(nproc)" \
        --target test_fault test_fault_sweep test_sweep \
                 test_integrity test_persist_fault
    "$asan/tests/test_fault"
    "$asan/tests/test_fault_sweep"
    "$asan/tests/test_sweep"
    # The batched Merkle hasher packs node messages into stack buffers
    # and strides over them; the tree equivalence suite and the
    # recovery cycles that batch-adopt lines cover that indexing.
    "$asan/tests/test_integrity"
    "$asan/tests/test_persist_fault"
    echo "tier1: ASan fault/sweep/integrity tests passed"
fi

if [[ "${DEUCE_UBSAN:-0}" == "1" ]]; then
    ubsan="$build-ubsan"
    cmake -B "$ubsan" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDEUCE_UBSAN=ON
    cmake --build "$ubsan" -j "$(nproc)" \
        --target test_line_kernels test_fuzz_consistency \
                 test_persist test_write_batch test_otp test_vcc \
                 test_integrity test_persist_fault stolen_dimm_attack
    "$ubsan/tests/test_line_kernels"
    "$ubsan/tests/test_fuzz_consistency"
    "$ubsan/tests/test_persist"
    # Stride arithmetic of the batched Merkle hasher (test_integrity)
    # and batch adoption across recovery cycles (test_persist_fault).
    "$ubsan/tests/test_integrity"
    "$ubsan/tests/test_persist_fault"
    # The VCC cost arithmetic (virtual-counter algebra at 2^57-scale
    # counters, MLC matrix indexing) is exactly the kind of integer
    # code UBSan exists for.
    "$ubsan/tests/test_vcc"
    # Batch-path coverage: the cross-line pad stream (test_otp) and
    # the writeBatch bit-identity suite, checked for UB (the wide
    # cipher and kernel TUs do unaligned loads behind intrinsics).
    "$ubsan/tests/test_otp"
    "$ubsan/tests/test_write_batch"
    "$ubsan/examples/stolen_dimm_attack" > /dev/null
    echo "tier1: UBSan line-kernel and persist tests passed"
fi

echo "tier1: OK"
