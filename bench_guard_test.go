package qei

import (
	"testing"

	"qei/internal/benchguard"
)

// TestBenchGuard is the CI benchmark-regression gate for the end-to-end
// runners (the ci.sh bench-guard stage runs it with QEI_BENCH_GUARD=1):
// it benchmarks them and compares against the committed
// BENCH_guard.json envelope; see internal/benchguard for the gate.
//
// Regenerate the envelope after an intentional performance change:
//
//	go test -run '^$' -bench BenchmarkEndToEnd -benchtime 3x .
//
// then round the measured allocs/op and ns/op up ~10% into
// BENCH_guard.json.
func TestBenchGuard(t *testing.T) {
	benchguard.Check(t, "BENCH_guard.json", map[string]func(*testing.B){
		"BenchmarkEndToEndBaseline": BenchmarkEndToEndBaseline,
		"BenchmarkEndToEndQEI":      BenchmarkEndToEndQEI,
		"BenchmarkEndToEndBench":    BenchmarkEndToEndBench,
		"BenchmarkQueryBatch":       BenchmarkQueryBatch,
	})
}
