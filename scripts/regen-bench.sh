#!/bin/sh
# Regenerates the checked-in evaluation output. CI re-runs this and diffs,
# so crasbench_output.txt can never drift from what the code produces.
# Quick mode keeps the fixed-seed sweep small enough for a PR gate; run
# `go run ./cmd/crasbench -all` by hand for the full-size tables.
set -e
cd "$(dirname "$0")/.."
# -jsondir snapshots the rotating-parity capacity sweep, the multicast
# batching sweep, the sharded-cluster scaling sweep and the VCR admission
# sweep (all part of -all) into BENCH_parity.json, BENCH_multicast.json,
# BENCH_cluster.json and BENCH_vcr.json: pure simulation, deterministic at
# the fixed seed, so CI diffs them alongside crasbench_output.txt.
go run ./cmd/crasbench -all -quick -seed 1 -jsondir . > crasbench_output.txt
echo "regenerated crasbench_output.txt, BENCH_parity.json, BENCH_multicast.json, BENCH_cluster.json and BENCH_vcr.json" >&2
