// Package trace is the simulator's unified cycle-stamped event trace.
// Every component — cores, caches, TLBs, the NoC, memory, and the QEI
// accelerator — emits events into one ring-buffered Tracer, stamped with
// simulated cycles, and the whole interleaved timeline exports as Chrome
// trace-event JSON that chrome://tracing and Perfetto open directly.
//
// Like internal/metrics, the disabled path is free: a nil *Tracer
// accepts every emit call as a no-op, so instrumentation sites need no
// guards. The ring buffer bounds memory for long runs — once capacity is
// reached the oldest events are overwritten and Dropped() reports how
// many were lost.
//
// Simulated cycles map 1:1 onto trace-event microseconds ("ts"/"dur"),
// so one Perfetto microsecond is one simulated cycle. Track identity
// follows the trace-event model: Pid groups a component class (a core, a
// CHA slice, the DPU), Tid separates concurrent lanes within it (QST
// slots, comparator lanes).
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Phase is the trace-event phase character.
type Phase byte

const (
	// Complete is a duration event ("ph":"X") with start + dur.
	Complete Phase = 'X'
	// Instant is a point event ("ph":"i").
	Instant Phase = 'i'
)

// Event is one cycle-stamped trace entry.
type Event struct {
	// Name labels the event in the viewer, e.g. "query", "page_walk".
	Name string
	// Cat is the component category: "cpu", "cache", "tlb", "noc",
	// "mem", "qst", "cha".
	Cat string
	// Phase is Complete (has Dur) or Instant.
	Phase Phase
	// TS is the start time in simulated cycles.
	TS uint64
	// Dur is the duration in cycles (Complete events only).
	Dur uint64
	// Pid/Tid pick the Perfetto track: Pid is the component instance,
	// Tid the lane within it.
	Pid int
	Tid int
	// Args renders as the event's args object; keys are emitted in
	// sorted order so exports are byte-stable.
	Args map[string]string
}

// Tracer is a fixed-capacity ring buffer of events. A nil *Tracer is a
// valid disabled tracer: all emit methods are no-ops and Events returns
// nil.
type Tracer struct {
	buf     []Event
	next    int
	wrapped bool
	dropped uint64
}

// DefaultCapacity bounds trace memory for long runs (~1M events).
const DefaultCapacity = 1 << 20

// New creates a tracer holding at most capacity events; capacity <= 0
// selects DefaultCapacity.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records a fully specified event. No-op on a nil tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
		return
	}
	// Ring: overwrite the oldest event.
	t.buf[t.next] = e
	t.next++
	if t.next == cap(t.buf) {
		t.next = 0
	}
	t.wrapped = true
	t.dropped++
}

// Span records a Complete event covering cycles [start, end). No-op on a
// nil tracer.
func (t *Tracer) Span(cat, name string, start, end uint64, pid, tid int, args map[string]string) {
	if t == nil {
		return
	}
	dur := uint64(0)
	if end > start {
		dur = end - start
	}
	t.Emit(Event{Name: name, Cat: cat, Phase: Complete, TS: start, Dur: dur, Pid: pid, Tid: tid, Args: args})
}

// Point records an Instant event at cycle ts. No-op on a nil tracer.
func (t *Tracer) Point(cat, name string, ts uint64, pid, tid int, args map[string]string) {
	if t == nil {
		return
	}
	t.Emit(Event{Name: name, Cat: cat, Phase: Instant, TS: ts, Pid: pid, Tid: tid, Args: args})
}

// Events returns the recorded events in emit order (oldest first when
// the ring has wrapped). The returned slice is a copy.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		out := make([]Event, len(t.buf))
		copy(out, t.buf)
		return out
	}
	out := make([]Event, 0, cap(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Dropped returns how many events were overwritten after the ring
// filled.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Export serializes the tracer's buffered events as a Chrome trace-event
// JSON document ({"traceEvents":[...]}) accepted by chrome://tracing and
// Perfetto. Events are ordered by (TS, Pid, Tid, Name) and fields are
// written in a fixed order, so identical traces export to identical
// bytes — the property the golden-file tests pin down. A nil tracer
// exports an empty event list.
func (t *Tracer) Export() string {
	sorted := t.Events()
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		return a.Name < b.Name
	})

	var b strings.Builder
	b.WriteString("{\"traceEvents\":[\n")
	for i, e := range sorted {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, `{"name":%q,"cat":%q,"ph":%q,"ts":%d`,
			e.Name, e.Cat, string(e.Phase), e.TS)
		if e.Phase == Complete {
			fmt.Fprintf(&b, `,"dur":%d`, e.Dur)
		}
		if e.Phase == Instant {
			// Thread-scoped instants render as small arrows on the track.
			b.WriteString(`,"s":"t"`)
		}
		fmt.Fprintf(&b, `,"pid":%d,"tid":%d`, e.Pid, e.Tid)
		if len(e.Args) > 0 {
			keys := make([]string, 0, len(e.Args))
			for k := range e.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b.WriteString(`,"args":{`)
			for j, k := range keys {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%q:%q", k, e.Args[k])
			}
			b.WriteByte('}')
		}
		b.WriteByte('}')
	}
	b.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	return b.String()
}
