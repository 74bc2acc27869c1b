package serve

import "testing"

// tb returns a breaker with a small, test-friendly window: 8 buckets of
// 128 cycles, tripping at 50% faults over at least 4 samples, holding
// open for 512 cycles, closing after 2 probe successes.
func tb() *Breaker {
	return NewBreaker(BreakerConfig{
		Window:         1024,
		MinSamples:     4,
		OpenFor:        512,
		HalfOpenProbes: 2,
	})
}

func TestBreakerTripsAtRate(t *testing.T) {
	b := tb()
	// Three faults are below MinSamples: no trip yet.
	for i := uint64(0); i < 3; i++ {
		b.Record(i*10, false)
		if b.State() != BreakerClosed {
			t.Fatalf("tripped on sample %d, below MinSamples", i+1)
		}
	}
	b.Record(30, false)
	if b.State() != BreakerOpen {
		t.Fatal("4 faults out of 4 did not trip")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	if b.Allow(40) {
		t.Fatal("open breaker allowed the primary")
	}
	if b.FastFails() != 1 {
		t.Fatalf("fastFails = %d, want 1", b.FastFails())
	}
}

func TestBreakerHealthyMajorityStaysClosed(t *testing.T) {
	b := tb()
	// 1 fault in 10 is far under the 50% trip rate.
	for i := uint64(0); i < 10; i++ {
		b.Record(i*10, i != 3)
	}
	if b.State() != BreakerClosed {
		t.Fatal("healthy stream tripped the breaker")
	}
	if !b.Allow(200) {
		t.Fatal("closed breaker refused the primary")
	}
}

func TestBreakerWindowAgesOutFaults(t *testing.T) {
	b := tb()
	// Three faults (just under MinSamples) at cycle ~0.
	for i := uint64(0); i < 3; i++ {
		b.Record(i, false)
	}
	// A full window later they have aged out: a lone fresh fault among
	// three successes is 25%, under the 50% trip rate, so the breaker
	// must stay closed — unless the stale faults wrongly still count.
	for i := uint64(0); i < 3; i++ {
		b.Record(2000+i*10, true)
	}
	b.Record(2040, false)
	if b.State() != BreakerClosed {
		t.Fatal("aged-out faults still counted against the window")
	}
}

func TestBreakerHalfOpenCloseAndRetrip(t *testing.T) {
	b := tb()
	for i := uint64(0); i < 4; i++ {
		b.Record(i, false)
	}
	if b.State() != BreakerOpen {
		t.Fatal("no trip")
	}
	openedAt := b.OpenedAt()
	// Before the hold expires: fast-fail.
	if b.Allow(openedAt + 100) {
		t.Fatal("allowed during open hold")
	}
	// After: half-open, bounded probes.
	if !b.Allow(openedAt + 600) {
		t.Fatal("no probe after hold expired")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v after hold, want half-open", b.State())
	}
	if !b.Allow(openedAt + 610) {
		t.Fatal("second probe refused")
	}
	// Probe bound reached (HalfOpenProbes = 2): next is a fast-fail.
	if b.Allow(openedAt + 620) {
		t.Fatal("probe bound not enforced")
	}
	if b.Probes() != 2 {
		t.Fatalf("probes = %d, want 2", b.Probes())
	}
	// Two probe successes close it.
	b.Record(openedAt+700, true)
	b.Record(openedAt+710, true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after %d probe successes, want closed", b.State(), 2)
	}

	// Trip again, half-open again, and this time a probe fault reopens.
	for i := uint64(0); i < 4; i++ {
		b.Record(openedAt+800+i, false)
	}
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("second trip missing: state %v trips %d", b.State(), b.Trips())
	}
	if !b.Allow(b.OpenedAt() + 600) {
		t.Fatal("no probe on second half-open")
	}
	b.Record(b.OpenedAt()+700, false)
	if b.State() != BreakerOpen || b.Trips() != 3 {
		t.Fatalf("probe fault did not re-trip: state %v trips %d", b.State(), b.Trips())
	}
}

// TestBreakerDeterministic pins that the automaton is a pure function
// of the fed (cycle, outcome) sequence — the property replay identity
// rests on.
func TestBreakerDeterministic(t *testing.T) {
	run := func() (BreakerState, uint64, uint64, uint64) {
		b := tb()
		x := uint64(99)
		for i := uint64(0); i < 500; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			now := i * 37
			if b.Allow(now) {
				b.Record(now+20, x%3 != 0)
			}
		}
		return b.State(), b.Trips(), b.FastFails(), b.Probes()
	}
	s1, t1, f1, p1 := run()
	s2, t2, f2, p2 := run()
	if s1 != s2 || t1 != t2 || f1 != f2 || p1 != p2 {
		t.Fatalf("same sequence diverged: (%v %d %d %d) vs (%v %d %d %d)",
			s1, t1, f1, p1, s2, t2, f2, p2)
	}
	if t1 == 0 || f1 == 0 {
		t.Fatalf("sequence exercised no trips (%d) or fast-fails (%d)", t1, f1)
	}
}
