#!/usr/bin/env bash
# Perf ledger: run perfbench workloads at --trace 0 and --trace 1 and
# append one row per (commit, workload, trace) to BENCH_LEDGER.json at
# the root of this repo.
#
# Usage: scripts/bench_ledger.sh [--checkout DIR] [WORKLOAD...]
#
#   --checkout DIR  source tree to build and run (default: this repo)
#   WORKLOAD        perfbench workload names (default: all three)
#
# Every run lasts the checkout's BENCHMARK.json `run_seconds`, so rows
# compare under the benchmark's own rules.
#
# Rows are named by the checkout's commit. A tree with uncommitted
# changes to tracked files is named `<sha>-dirty+<diff>`, where <diff>
# is the first 7 hex digits of
#   git diff <sha> --binary -- . ':(exclude)*.md' \
#       ':(exclude)BENCH_LEDGER.json' | git hash-object --stdin
# so the name is reproducible from any commit with the same code: run
# the same pipeline with `git diff <sha> <commit>`. Docs and the
# ledger itself are left out, so appending rows or editing prose does
# not rename the tree.
#
# Each row carries perfbench's `host:` line, a UTC date and its final
# JSON result. Rows are only ever appended, so re-running a commit adds
# rows beside the earlier ones (a shared host's speed drifts; compare
# rows measured back to back). The ledger is a JSON array with one row
# per line, oldest first.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
checkout="$repo"
ledger="$repo/BENCH_LEDGER.json"
workloads=()

while [[ $# -gt 0 ]]; do
    case "$1" in
      --checkout) checkout="$(cd "$2" && pwd)"; shift 2 ;;
      -*) echo "bench_ledger: unknown option $1" >&2; exit 2 ;;
      *) workloads+=("$1"); shift ;;
    esac
done
if [[ ${#workloads[@]} -eq 0 ]]; then
    workloads=(replay-deuce timed-mlc serve-ble)
fi

seconds="$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$checkout/BENCHMARK.json")"
commit="$(git -C "$checkout" rev-parse --short=7 HEAD)"
diff="$(git -C "$checkout" diff HEAD --binary -- . ':(exclude)*.md' \
    ':(exclude)BENCH_LEDGER.json' | git hash-object --stdin)"
if [[ "$diff" != "$(git hash-object --stdin < /dev/null)" ]]; then
    commit="$commit-dirty+${diff:0:7}"
fi
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

for workload in "${workloads[@]}"; do
    for trace in 0 1; do
        echo "bench_ledger: $commit $workload trace $trace" >&2
        (cd "$checkout" &&
            python3 perfbench/run.py --workload "$workload" \
                --seconds "$seconds" --trace "$trace") > "$out"
        python3 - "$ledger" "$out" "$commit" "$workload" "$trace" \
            "$seconds" <<'PY'
import datetime
import json
import os
import sys

ledger, out, commit, workload, trace, seconds = sys.argv[1:]
lines = open(out).read().splitlines()
host = next(l[len("host: "):] for l in lines if l.startswith("host: "))
result = json.loads(lines[-1])
row = {
    "commit": commit,
    "workload": workload,
    "trace": int(trace),
    "seconds": int(seconds),
    "date": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "host": host,
    "result": result,
}
rows = json.load(open(ledger)) if os.path.exists(ledger) else []
rows.append(row)
with open(ledger + ".tmp", "w") as f:
    f.write("[\n")
    f.write(",\n".join(json.dumps(r, sort_keys=True) for r in rows))
    f.write("\n]\n")
os.replace(ledger + ".tmp", ledger)
kops = result["metrics"].get("kops_per_s", {}).get("value")
print(f"bench_ledger: {commit} {workload} trace {trace}: "
      f"correct={result['correct']} kops_per_s={kops}")
PY
    done
done
