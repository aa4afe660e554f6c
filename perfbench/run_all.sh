#!/bin/sh
# Print the end-to-end metrics of every workload: sh perfbench/run_all.sh [SEED] [SECONDS]
set -e
for workload in paper-f paper-proto wide-l; do
    echo "== $workload"
    python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" --seconds "${2:-20}" --trace 0
done
