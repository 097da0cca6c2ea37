#!/usr/bin/env bash
# One pass of a benchmark workload, checked against its pinned output.
#
# Usage: scripts/bench_check.sh WORKLOAD SHA256 TRACE
#
# Runs `perfbench/run.py --workload WORKLOAD --seconds 0 --trace TRACE` from
# the repository root and fails unless every circuit passes the benchmark's
# independent reference check ("correct": true) and the pass prints
# `# output sha256 SHA256`.  An untraced pass (TRACE 0) shows the tail of
# its report; a traced one shows its pass counts, `rewrite.rule_calls` and
# `rewrite.rule_yield`.
set -euo pipefail

if [ "$#" -ne 3 ]; then
  echo "usage: $0 WORKLOAD SHA256 TRACE" >&2
  exit 2
fi
workload=$1 sha=$2 trace=$3

out=$(mktemp)
trap 'rm -f "$out"' EXIT
python perfbench/run.py --workload "$workload" --seconds 0 --trace "$trace" > "$out"
if [ "$trace" = 0 ]; then
  tail -n 12 "$out"
else
  grep -E '^(# passes:|# untraced|rewrite\.rule_calls|rewrite\.rule_yield) ' "$out"
fi
grep -q '"correct": true' "$out" || { echo "$workload: reference check failed"; exit 1; }
grep -q "^# output sha256 $sha " "$out" || { echo "$workload: output sha256 changed"; exit 1; }
