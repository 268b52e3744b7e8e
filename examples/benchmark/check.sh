#!/usr/bin/env bash
# Stability check for the repository benchmark.
#
#   examples/benchmark/check.sh [runs-per-set] [workload ...]
#
# Builds the benchmark once, then runs two sets of N untraced runs per
# workload (default N=5, every workload in BENCHMARK.json), each run on
# its own seed, both sets on the same seeds. For every (end-to-end metric,
# workload) pair it prints the spread of each set (distance between the
# first and third quartile over the median) and the change of the second
# set's median against the first, and says pass when both stay within the
# metric's bound in BENCHMARK.json (the spread of setup_s is shown but not
# judged). It also checks that every run reported correct outputs and
# exactly the metrics BENCHMARK.json lists. Exits 1 if anything fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
runs="${1:-5}"
shift || true
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mapfile -t workloads < <(
  if [ "$#" -gt 0 ]; then printf '%s\n' "$@"
  else python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]'
  fi
)
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

cargo build --quiet --release --offline --manifest-path examples/benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/benchmark"

mkdir -p "$CARGO_TARGET_DIR"
results="$(mktemp -d "$CARGO_TARGET_DIR/check.XXXXXX")"
trap 'rm -rf "$results"' EXIT

for set in a b; do
  for w in "${workloads[@]}"; do
    for i in $(seq 1 "$runs"); do
      seed=$((100 + i))
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 >> "$results/$set.$w.jsonl"
      echo "set $set $w seed $seed done" >&2
    done
  done
done

python3 - "$results" "${workloads[@]}" <<'EOF'
import json, statistics, sys

results, workloads = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
e2e = {m["name"]: m for m in spec["end_to_end"]}
ok = True

def load(s, w):
    return [json.loads(l) for l in open(f"{results}/{s}.{w}.jsonl")]

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

print(f"{'workload':<16} {'metric':<14} {'median_a':>12} {'median_b':>12} "
      f"{'spread_a':>9} {'spread_b':>9} {'change':>8} {'bound':>6}  verdict")
for w in workloads:
    sets = {s: load(s, w) for s in "ab"}
    for s, rows in sets.items():
        for r in rows:
            if not r["correct"] or r["failed"] or set(r["metrics"]) != set(e2e):
                print(f"{w}: set {s} run reported {r['correct']=} {r['failed']=} "
                      f"metrics {sorted(r['metrics'])}")
                ok = False
    for name, m in e2e.items():
        a = [r["metrics"][name]["value"] for r in sets["a"]]
        b = [r["metrics"][name]["value"] for r in sets["b"]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        passed = worse <= m["bound"] and (name == "setup_s" or max(sa, sb) <= m["bound"])
        ok &= passed
        print(f"{w:<16} {name:<14} {ma:>12.5g} {mb:>12.5g} {sa:>9.4f} {sb:>9.4f} "
              f"{worse:>8.4f} {m['bound']:>6}  {'pass' if passed else 'FAIL'}")
sys.exit(0 if ok else 1)
EOF
