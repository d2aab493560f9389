#!/usr/bin/env bash
# Runs every workload once untraced and once traced and prints each result
# line, prefixed by the workload and mode. Run it from the repository root:
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-25}"
for w in analyze-small analyze-tall serve-mixed; do
	for t in 0 1; do
		line="$(bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" | tail -n 1)"
		printf '%s trace=%s %s\n' "$w" "$t" "$line"
	done
done
