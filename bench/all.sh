#!/bin/sh
# Prints every end-to-end and per-layer metric of every workload, by name and
# unit, with output checks.  Run from the root of the checkout:
#   sh bench/all.sh [seed] [seconds]
set -e
for workload in release-1e5 audit-200 cli-chain; do
    for trace in 0 1; do
        python3 bench/run.py --workload "$workload" --seed "${1:-1}" \
            --seconds "${2:-36}" --trace "$trace"
    done
done
