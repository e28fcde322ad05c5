#!/usr/bin/env bash
# bench.sh — run the paper's E1–E9 experiment benchmarks plus the exec
# microbenchmarks with -benchmem, emitting benchstat-comparable output.
#
# Usage:
#   ./bench.sh             full run (count=5, suitable for benchstat)
#   ./bench.sh -quick      single short iteration (CI smoke / trajectory)
#   ./bench.sh E5          only benchmarks matching the given regex
#   ./bench.sh -json=F.json  also write the parsed results (name, ns/op,
#                            B/op, allocs/op) as a JSON array to F.json
#
# Compare two trees with:
#   git checkout main  && ./bench.sh > old.txt
#   git checkout my-pr && ./bench.sh > new.txt
#   benchstat old.txt new.txt
set -euo pipefail
cd "$(dirname "$0")"

count=5
benchtime=1s
json_out=''
pattern='E[1-9]|Filter|Aggregate|HashJoin|JoinBuild|Sort|OrderBy|Like|Steim|Extract|Spill|Pipeline|Overlap|Concurrent|Skip|Prepared|ResultCache|TraceOverhead|MetricsScrape|HeaderScan|BTime|LoadMetadata|Convert|MetadataPhase|EncodeResult|WindowedAgg|OneOffQueries'

for arg in "$@"; do
  case "$arg" in
    -quick)
      count=1
      benchtime=1x
      ;;
    -json=*)
      json_out="${arg#-json=}"
      ;;
    *)
      pattern="$arg"
      ;;
  esac
done

if [ -z "$json_out" ]; then
  exec go test -run '^$' -bench "$pattern" -benchmem \
    -count "$count" -benchtime "$benchtime" ./...
fi

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
go test -run '^$' -bench "$pattern" -benchmem \
  -count "$count" -benchtime "$benchtime" ./... | tee "$out"

awk '
  BEGIN { printf "[" }
  /^Benchmark/ && /ns\/op/ {
    name = $1; ns = ""; b = "null"; a = "null"
    for (i = 2; i < NF; i++) {
      if ($(i+1) == "ns/op")     ns = $i
      if ($(i+1) == "B/op")      b  = $i
      if ($(i+1) == "allocs/op") a  = $i
    }
    if (ns == "") next
    printf "%s\n  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", sep, name, ns, b, a
    sep = ","
  }
  END { printf "\n]\n" }
' "$out" > "$json_out"
echo "wrote $json_out" >&2
