#!/usr/bin/env bash
# The one command: build the benchmark, run every workload in its own
# process, keep each result, and print every metric with its unit.
#
#   bench/e2e/run.sh [label] [runs] [--traced]
#
# Run k (1..runs) uses seed SEED + k - 1 (SEED defaults to 1) and writes
# bench/e2e/results/<label>/run<k>/<workload>.json; --traced adds a traced
# run of each workload (<workload>.traced.json, a Chrome trace and a
# self-time table). Each run measures BENCHMARK.json's run_seconds. The build
# uses at most nproc jobs and the driver at most min(2, nproc) threads.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
label="${1:-local}"
runs="${2:-1}"
traced="${3:-}"
seed="${SEED:-1}"
out="$here/results/$label"

read -r seconds workloads < <(python3 -c '
import json, sys
spec = json.load(open(sys.argv[1]))
print(spec["run_seconds"], " ".join(w["name"] for w in spec["workloads"]))
' "$root/BENCHMARK.json")

mkdir -p "$out"
cat > "$out/meta.json" <<EOF
{"date": "$(date -u +%Y-%m-%dT%H:%M:%SZ)", "nproc": $(nproc), "runs": $runs,
 "first_seed": $seed, "run_seconds": $seconds,
 "compiler": "$(c++ --version | head -n 1)"}
EOF

status=0
for k in $(seq 1 "$runs"); do
  for w in $workloads; do
    modes="0"
    if [ "$traced" = "--traced" ]; then modes="0 1"; fi
    for trace in $modes; do
      echo "== $label run $k: $w (seed $((seed + k - 1)), trace $trace)"
      python3 "$here/run.py" --workload "$w" --seed "$((seed + k - 1))" \
        --seconds "$seconds" --trace "$trace" --out "$out/run$k" || status=1
    done
  done
done
exit "$status"
