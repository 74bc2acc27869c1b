package serve

// Circuit breaker for the primary serving backend. The serving layer
// treats the accelerator as an unreliable fast path with the software
// walker as safety net (Tailwind's placement discipline); the breaker is
// the wholesale version of that judgment. It watches the primary's
// fault rate over a sliding window of simulated cycles and, once the
// window turns rotten, stops offering it requests at all: admission is
// bypassed and every request routes straight to the failover backend
// until a deterministic half-open probe phase proves the primary healthy
// again. Everything is driven off the backend's simulated clock, so a
// replayed trace walks the breaker through the identical state sequence.

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState int

const (
	// BreakerClosed: healthy; requests flow to the primary backend.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the window tripped; requests fast-fail to the
	// failover backend without touching the primary.
	BreakerOpen
	// BreakerHalfOpen: the open hold expired; a bounded number of probe
	// requests test the primary while everything else stays failed over.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "invalid"
}

// Defaults for the zero BreakerConfig. The window is sized to hold a
// few dozen typical request lifetimes at the default serving gap, so a
// burst of injected faults trips it within one soak but a lone fault
// ages out before the next one lands.
const (
	DefaultBreakerWindow     = 32768
	DefaultBreakerMinSamples = 8
	DefaultBreakerProbes     = 4
)

// The window is subdivided into breakerBuckets buckets, so outcomes
// age out an eighth of the window at a time, and the breaker opens once
// breakerTripRate of the window's outcomes are faults.
const (
	breakerBuckets  = 8
	breakerTripRate = 0.5
)

// BreakerConfig tunes the primary-path circuit breaker. The zero value
// means "enabled with defaults"; set Disabled to opt out while keeping
// the rest of the resilience layer.
type BreakerConfig struct {
	// Disabled turns the breaker off entirely: requests always try the
	// primary (per-request retry/failover still applies).
	Disabled bool `json:"disabled,omitempty"`
	// Window is the sliding fault-rate window in simulated cycles.
	// 0 uses DefaultBreakerWindow.
	Window uint64 `json:"window,omitempty"`
	// MinSamples is the minimum window population before the trip rate
	// is evaluated — a single early fault must not trip an idle breaker.
	// 0 uses DefaultBreakerMinSamples.
	MinSamples uint64 `json:"min_samples,omitempty"`
	// OpenFor is how long an open breaker holds before half-opening, in
	// simulated cycles. 0 uses Window.
	OpenFor uint64 `json:"open_for,omitempty"`
	// HalfOpenProbes is both the cap on concurrently in-flight probe
	// requests while half-open and the number of consecutive probe
	// successes that close the breaker. A probe fault reopens it.
	// 0 uses DefaultBreakerProbes.
	HalfOpenProbes int `json:"half_open_probes,omitempty"`
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window == 0 {
		c.Window = DefaultBreakerWindow
	}
	if c.MinSamples == 0 {
		c.MinSamples = DefaultBreakerMinSamples
	}
	if c.OpenFor == 0 {
		c.OpenFor = c.Window
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = DefaultBreakerProbes
	}
	return c
}

// Breaker is the deterministic sliding-window circuit breaker. All
// decisions are pure functions of the (simulated-cycle, outcome)
// sequence fed to Allow/Record, so serial, parallel-generated, and
// replayed runs see identical state transitions. Not safe for
// concurrent use — like the server, one goroutine owns it.
type Breaker struct {
	cfg   BreakerConfig
	width uint64 // cycles per bucket

	state    BreakerState
	ok, bad  []uint64 // per-bucket outcome counts, ring-indexed
	slot     uint64   // absolute bucket index holding the latest Record
	openedAt uint64   // cycle of the last Closed/HalfOpen -> Open trip

	probeInflight int // half-open probes currently outstanding
	probeOK       int // consecutive half-open probe successes

	trips     uint64
	fastFails uint64
	probes    uint64
}

// NewBreaker builds a breaker with cfg's zero fields defaulted.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{
		cfg:   cfg,
		width: cfg.Window / breakerBuckets,
		ok:    make([]uint64, breakerBuckets),
		bad:   make([]uint64, breakerBuckets),
	}
}

// rotate ages the window forward to the bucket containing cycle now,
// clearing every bucket that fell out of it.
func (b *Breaker) rotate(now uint64) {
	abs := now / b.width
	if abs <= b.slot {
		return
	}
	n := abs - b.slot
	if n > breakerBuckets {
		n = breakerBuckets
	}
	for i := uint64(1); i <= n; i++ {
		idx := (b.slot + i) % breakerBuckets
		b.ok[idx] = 0
		b.bad[idx] = 0
	}
	b.slot = abs
}

func (b *Breaker) counts() (ok, bad uint64) {
	for i := range b.ok {
		ok += b.ok[i]
		bad += b.bad[i]
	}
	return ok, bad
}

func (b *Breaker) trip(now uint64) {
	b.state = BreakerOpen
	b.openedAt = now
	b.trips++
	// Drop the rotten window so a later close starts from a clean slate
	// instead of instantly re-tripping on stale faults.
	for i := range b.ok {
		b.ok[i] = 0
		b.bad[i] = 0
	}
}

// Allow reports whether a request arriving at cycle now may try the
// primary backend. false means route it to the failover path (counted
// as a fast-fail). An open breaker whose hold has expired half-opens
// here and admits up to HalfOpenProbes concurrent probes.
func (b *Breaker) Allow(now uint64) bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now < b.openedAt+b.cfg.OpenFor {
			b.fastFails++
			return false
		}
		b.state = BreakerHalfOpen
		b.probeInflight = 0
		b.probeOK = 0
		fallthrough
	default: // BreakerHalfOpen
		if b.probeInflight >= b.cfg.HalfOpenProbes {
			b.fastFails++
			return false
		}
		b.probeInflight++
		b.probes++
		return true
	}
}

// Record feeds one primary-backend outcome (ok = completed without a
// fault) observed at cycle now into the window and runs the state
// machine: a closed breaker trips when the window's fault rate reaches
// breakerTripRate with at least MinSamples outcomes; a half-open breaker
// closes after HalfOpenProbes consecutive successes and reopens on any
// fault.
func (b *Breaker) Record(now uint64, ok bool) {
	b.rotate(now)
	if b.state == BreakerHalfOpen {
		if b.probeInflight > 0 {
			b.probeInflight--
		}
		if !ok {
			b.trip(now)
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.HalfOpenProbes {
			b.state = BreakerClosed
		}
		return
	}
	idx := b.slot % breakerBuckets
	if ok {
		b.ok[idx]++
	} else {
		b.bad[idx]++
	}
	if b.state != BreakerClosed || ok {
		return
	}
	okN, badN := b.counts()
	if okN+badN >= b.cfg.MinSamples && float64(badN) >= breakerTripRate*float64(okN+badN) {
		b.trip(now)
	}
}

// State returns the current automaton state.
func (b *Breaker) State() BreakerState { return b.state }

// OpenedAt returns the cycle of the most recent trip.
func (b *Breaker) OpenedAt() uint64 { return b.openedAt }

// Trips counts Closed/HalfOpen -> Open transitions.
func (b *Breaker) Trips() uint64 { return b.trips }

// FastFails counts requests refused the primary while open (or while
// half-open past the probe bound) and routed to the failover path.
func (b *Breaker) FastFails() uint64 { return b.fastFails }

// Probes counts requests admitted to the primary while half-open.
func (b *Breaker) Probes() uint64 { return b.probes }

// BreakerReport is the breaker's summary row in a serving Report.
type BreakerReport struct {
	State     string `json:"state"`
	Trips     uint64 `json:"trips"`
	FastFails uint64 `json:"fast_fails"`
	Probes    uint64 `json:"probes"`
}
