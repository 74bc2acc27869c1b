package main

import (
	"fmt"
	"time"
)

// The benchmark's hosts are shared: other tenants' load changes the
// speed of the cores this process runs on by up to 2x, in phases that
// last from seconds to minutes. A raw host time then measures the
// neighbours as much as the program. So every timed unit (a serving
// pass, a matrix cell, a set-up) is bracketed by runs of a fixed
// reference kernel, and its time is scaled to a host on which that
// kernel takes refNominal: a unit that took d while the kernel took r
// around it reports d·refNominal/r. A change to the program moves d and
// leaves r alone, so it shows in full.
//
// The kernel mixes what the simulator spends its host time on: map
// updates and lookups, and a dependent pointer walk through a list
// threaded over refNodes nodes (3.2 MB, past L2), with a xorshift
// stream for keys. It allocates nothing after its first run (the map
// is cleared, which keeps its buckets, and the nodes are preallocated),
// so it does no garbage-collection work, whatever the program's heap.
const (
	refNodes   = 200_000
	refKeys    = 1 << 16
	refWalks   = 5
	refNominal = 20 * time.Millisecond
)

// refSink keeps the kernel's result live.
var refSink uint64

// refNode is one node of the kernel's list.
type refNode struct {
	next *refNode
	v    uint64
}

// refClock times units of work against the reference kernel.
type refClock struct {
	nodes []refNode
	sums  map[uint64]uint64
	// last is the kernel time measured after the previous unit, which
	// is also the one before the next unit (0 before the first).
	last float64
	// kernels are every kernel time measured, for the run's notes.
	kernels []float64
}

// newRefClock returns a clock whose kernel has run once, untimed, so
// that the map has all its buckets.
func newRefClock() *refClock {
	c := &refClock{nodes: make([]refNode, refNodes), sums: make(map[uint64]uint64, refKeys)}
	c.kernel()
	c.kernels = nil
	return c
}

// kernel runs the reference kernel once and returns its host time in
// seconds. Every run does the same work: the key stream starts from a
// fixed seed.
func (c *refClock) kernel() float64 {
	start := time.Now()
	clear(c.sums)
	var head *refNode
	x := uint64(88172645463325252)
	for i := range c.nodes {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.sums[x%refKeys] += x
		c.nodes[i] = refNode{next: head, v: x}
		head = &c.nodes[i]
	}
	s := uint64(0)
	for w := 0; w < refWalks; w++ {
		for n := head; n != nil; n = n.next {
			s += n.v ^ c.sums[n.v%refKeys]
		}
	}
	refSink += s
	d := time.Since(start).Seconds()
	c.kernels = append(c.kernels, d)
	return d
}

// note summarises the kernel times measured, for the run's notes.
func (c *refClock) note() string {
	return fmt.Sprintf("reference kernel: %d runs, fastest %.2f ms, median %.2f ms (nominal %v)",
		len(c.kernels), 1000*quantile(c.kernels, 0), 1000*median(c.kernels), refNominal)
}

// time runs f and returns its host time in seconds scaled to the
// reference speed, using the mean of the kernel's times just before and
// just after f.
func (c *refClock) time(f func() error) (float64, error) {
	if c.last == 0 {
		c.last = c.kernel()
	}
	before := c.last
	start := time.Now()
	err := f()
	d := time.Since(start).Seconds()
	c.last = c.kernel()
	return d * refNominal.Seconds() / ((before + c.last) / 2), err
}
