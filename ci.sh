#!/bin/sh
# CI gate: formatting, vet, and the full test suite under the race
# detector (the parallel experiment runner must be race-clean).
set -eu

cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
# The root package's experiment-band tests run minutes of simulation;
# under the race detector on few cores they outlast go test's default
# 10m per-package budget, so give them room.
go test -race -timeout 90m ./...

# Bench smoke: one iteration of the Tab. I benchmark proves the bench
# harness still assembles and logs its table.
go test -run '^$' -bench BenchmarkTab1 -benchtime 1x -short .

# Zero-overhead guard: attaching metrics + tracing — and the disabled
# fault-injection/watchdog apparatus — must not move a single
# simulated cycle (deterministic cycle-count assertion — no flaky
# wall-clock thresholds).
go test -run '^(TestObservabilityZeroCycleImpact|TestFaultInjectionZeroCycleImpact)$' -count=1 .

# Bench guard: benchmark the end-to-end runners and compare against the
# committed BENCH_guard.json envelope. Allocations are the hard gate
# (>2x allocs/op fails — machine-independent, so any excursion is a real
# hot-path regression); wall time gets a generous 5x to absorb machine
# variation. See bench_guard_test.go for how to regenerate the envelope
# after an intentional performance change. internal/cpu guards the core
# model's per-op cost (BenchmarkCoreFeed, 0 allocs/op) the same way.
QEI_BENCH_GUARD=1 go test -run '^TestBenchGuard$' -count=1 -short . ./internal/cpu

# Fault-injection smoke: a replayable chaos schedule through every
# structure kind must resolve every query without panicking the
# process (qeisim exits non-zero otherwise).
go run ./cmd/qeisim -faults "7:flip=0.05,nocdelay=0.1,nocdrop=0.05,shootdown=0.1,spurious=0.05,evict=0.1"

# Trace smoke: an ROI run's unified timeline must fit the tracer's ring
# (nothing dropped), parse as JSON, and carry the QST query spans. A
# -trace that cannot be honoured (-scheme all) must fail, not exit 0
# without writing the file.
trace_file=$(mktemp)
trace_out=$(go run ./cmd/qeisim -workload dpdk -scheme core -mode roi -trace "$trace_file")
case "$trace_out" in
*'(0 dropped)'*) ;;
*)
	echo "trace-smoke: qeisim dropped trace events or wrote none: $trace_out" >&2
	exit 1
	;;
esac
if ! python3 -c 'import json, sys; sys.exit(not any(e["cat"] == "qst" for e in json.load(open(sys.argv[1]))["traceEvents"]))' "$trace_file"; then
	echo "trace-smoke: trace is not JSON or has no qst query span" >&2
	exit 1
fi
if go run ./cmd/qeisim -workload dpdk -scheme all -trace "$trace_file" >/dev/null 2>&1; then
	echo "trace-smoke: qeisim -scheme all accepted -trace" >&2
	exit 1
fi
rm -f "$trace_file"

# Examples: each one verifies its answers against host-side reference
# lookups and exits non-zero on a mismatch, so running them (not only
# compiling them) keeps the documented API paths working.
for ex in quickstart kvstore ips_scan nfv_router lpm_router; do
	go run "./examples/$ex" >/dev/null
done

# Serve smoke: a small multi-tenant run through BOTH serving backends
# must emit machine-readable per-tenant percentiles. Checks that the
# JSON carries p99 fields and one report per backend.
serve_json=$(go run ./cmd/qeiserve -backend both -tenants 2 -requests 60 -keys 32 -json)
for needle in '"p99"' '"backend": "qei"' '"backend": "baseline"' '"slo_violations"'; do
	case "$serve_json" in
	*"$needle"*) ;;
	*)
		echo "serve-smoke: missing $needle in qeiserve -json output" >&2
		exit 1
		;;
	esac
done

# Stream smoke: a short one-tenant read-write stream that grows its
# B+ tree, with lookups in flight across the mutations, must report
# non-zero write and hit counters, and replay its recorded trace byte-
# identically. qeiserve exits non-zero on any answer that disagrees with
# the host model (this run is fault-free) or any read-after-retire
# violation. "writes" is an omitempty field, so its presence means >= 1.
stream_trace=$(mktemp)
stream_flags="-tenants 1 -writes 0.3 -grow -kind btree -requests 200 -keys 64 -json"
stream_out=$(go run ./cmd/qeiserve $stream_flags -record "$stream_trace")
stream_replay=$(go run ./cmd/qeiserve $stream_flags -replay "$stream_trace")
rm -f "$stream_trace"
case "$stream_out" in
*'"writes": '*) ;;
*)
	echo "stream-smoke: no writes in qeiserve -json output" >&2
	exit 1
	;;
esac
case "$stream_out" in
*'"found": 0,'*)
	echo "stream-smoke: no lookup hit its key" >&2
	exit 1
	;;
*'"found": '*) ;;
*)
	echo "stream-smoke: missing found counter in qeiserve -json output" >&2
	exit 1
	;;
esac
if [ "$stream_out" != "$stream_replay" ]; then
	echo "stream-smoke: trace replay diverged from live run" >&2
	exit 1
fi

# Fuzz: a bounded run of the JSONL trace reader's fuzz target (no
# panic, accepted traces round-trip); the committed corpus under
# internal/serve/testdata/fuzz also runs in the ordinary test stage.
go test -run '^$' -fuzz '^FuzzReadTrace$' -fuzztime 10s ./internal/serve

# Resilience smoke: a chaos schedule plus a tight SLO through the
# resilient serving path must complete (exit 0 — qeiserve fails on any
# read-after-retire epoch violation), degrade at least one request to
# the software safety net, and replay its recorded trace byte-
# identically under the same fault schedule. "failed_over" is an
# omitempty field, so its mere presence in the JSON means >= 1.
res_trace=$(mktemp)
res_flags="-resilient -faults 9:spurious=0.3,flip=0.03,shootdown=0.05 -writes 0.1 -slo 4000 -tenants 3 -requests 300 -keys 64"
res_live=$(go run ./cmd/qeiserve $res_flags -record "$res_trace" -json)
res_replay=$(go run ./cmd/qeiserve $res_flags -replay "$res_trace" -json)
rm -f "$res_trace"
case "$res_live" in
*'"failed_over"'*) ;;
*)
	echo "resilience-smoke: no failover under chaos" >&2
	exit 1
	;;
esac
case "$res_live" in
*'"faults_injected"'*) ;;
*)
	echo "resilience-smoke: chaos schedule injected nothing" >&2
	exit 1
	;;
esac
if [ "$res_live" != "$res_replay" ]; then
	echo "resilience-smoke: chaos replay diverged from live run" >&2
	exit 1
fi
# Batched admission takes the same failover policy: the schedule minus
# flip (silent corruption no strategy can agree on; the later -faults
# wins) must fail lookups over and surface no fault in the aggregate
# row. Tenant rows carry "faults" too, so the aggregate is read from
# the parsed JSON.
res_batch=$(go run ./cmd/qeiserve $res_flags -faults 9:spurious=0.3,shootdown=0.05 -batchmode -json)
case "$res_batch" in
*'"failed_over"'*) ;;
*)
	echo "resilience-smoke: batched admission failed nothing over" >&2
	exit 1
	;;
esac
if ! echo "$res_batch" | python3 -c 'import json, sys; sys.exit(any(r["total"]["faults"] for r in json.load(sys.stdin)["reports"]))'; then
	echo "resilience-smoke: batched admission surfaced faults" >&2
	exit 1
fi

# Batch smoke: the level-wise batch demo parity-checks every kind
# against the per-query path (qeibench exits non-zero on any
# divergence) and must amortize real work — a zero translations-saved
# counter means the level-wise grouping did nothing. Then a batched-
# admission serving run must flush through the engine and retire every
# request (qeiserve exits non-zero on epoch violations).
batch_out=$(go run ./cmd/qeibench -batch 64 -scale small)
case "$batch_out" in
*'batch/translations_saved 0 '*)
	echo "batch-smoke: level-wise engine saved zero translations" >&2
	exit 1
	;;
*'batch/translations_saved '*) ;;
*)
	echo "batch-smoke: missing batch/translations_saved counter line" >&2
	exit 1
	;;
esac
bserve_out=$(go run ./cmd/qeiserve -batchmode -tenants 2 -requests 80 -keys 64)
case "$bserve_out" in
*'batch/batches 0 '*)
	echo "batch-smoke: batched admission flushed no batches" >&2
	exit 1
	;;
*'batch/batches '*) ;;
*)
	echo "batch-smoke: missing batch/batches counter line in qeiserve output" >&2
	exit 1
	;;
esac

# DSE smoke: a tiny 2x2 design-space sweep must produce a non-empty
# Pareto frontier, and the serial sweep must be byte-identical to the
# parallel one (the determinism contract of internal/dse).
dse_axes='qst=8,32;cores=16,24'
dse_serial=$(go run ./cmd/qeidse -axes "$dse_axes" -parallel 1 -json)
dse_par=$(go run ./cmd/qeidse -axes "$dse_axes" -parallel 8 -json)
if [ "$dse_serial" != "$dse_par" ]; then
	echo "dse-smoke: serial and parallel sweep output differ" >&2
	exit 1
fi
case "$dse_serial" in
*'"frontier": ['*) ;;
*)
	echo "dse-smoke: no frontier array in qeidse -json output" >&2
	exit 1
	;;
esac
case "$dse_serial" in
*'"frontier": []'*)
	echo "dse-smoke: empty Pareto frontier" >&2
	exit 1
	;;
esac

echo "ci: ok"
