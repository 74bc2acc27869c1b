package cpu

import (
	"testing"

	"qei/internal/benchguard"
	"qei/internal/isa"
	"qei/internal/mem"
)

// feedMixLen is feedMix's length, a power of two so the benchmark loop
// wraps with a mask.
const feedMixLen = 4096

// feedMix is a fixed op mix shaped like workload filler: a load into a
// 4 KB scratch area every 8th op, a dependent ALU chain every 3rd,
// a branch every 7th (one in 64 mispredicted) and independent ALU work
// between.
func feedMix() isa.Trace {
	b := isa.NewBuilder()
	chain := isa.Reg(0)
	for i := 0; i < feedMixLen; i++ {
		switch {
		case i%8 == 0:
			chain = b.Load(mem.VAddr(0x10000+(i*8)%4096), 8, 0)
		case i%3 == 0:
			chain = b.ALU(chain, 0)
		case i%7 == 6:
			b.Branch(chain, i%64 == 6)
		default:
			b.ALU(0, 0)
		}
	}
	return b.Take()
}

// BenchmarkCoreFeed measures the core model's per-op cost over feedMix
// against a fixed-latency memory port (an L1 hit), so the number is
// Feed alone; one iteration is one op.
func BenchmarkCoreFeed(b *testing.B) {
	ops := feedMix()
	c := New(DefaultConfig(), &fixedMem{lat: 4}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Feed(&ops[i&(feedMixLen-1)])
	}
}

// TestBenchGuard holds BenchmarkCoreFeed to its BENCH_guard.json
// envelope (the ci.sh bench-guard stage runs it with QEI_BENCH_GUARD=1).
func TestBenchGuard(t *testing.T) {
	benchguard.Check(t, "../../BENCH_guard.json", map[string]func(*testing.B){
		"BenchmarkCoreFeed": BenchmarkCoreFeed,
	})
}
