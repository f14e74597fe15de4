#!/bin/sh
# Perfbench smoke: one short untraced run of every perfbench workload.
#
# Usage: bin/perfbench_smoke.sh
#
# Each run (python3 perfbench/run.py --workload W --seed 1 --seconds 1
# --trace 0) builds perfbench/bench.exe from this checkout and checks the
# engine's output against closed forms and replays. The smoke fails
# unless the last line of every run is a JSON result with
# "correct": true and "failed": 0. Wall-clock figures are not gated here.
set -eu
cd "$(dirname "$0")/.."

for w in serve_sparse app_fanout; do
    out=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0)
    last=$(printf '%s\n' "$out" | tail -n 1)
    if printf '%s' "$last" | python3 -c '
import json, sys
r = json.load(sys.stdin)
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
'; then
        echo "perfbench_smoke: $w ok"
    else
        echo "perfbench_smoke: $w failed: $last" >&2
        exit 1
    fi
done
