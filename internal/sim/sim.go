// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is deliberately minimal: a virtual clock and a binary min-heap
// of pending events, ordered by time with FIFO tie-breaking at equal
// timestamps. Events are plain values in the heap's slice: the engine hands
// out no handle to them, so a scheduled event cannot be cancelled and
// nothing outlives its firing. Steady-state scheduling allocates nothing,
// because the heap's backing array is reused once it has grown to the peak
// queue length. All higher layers (radio, MAC, routing, collection)
// schedule work exclusively through an *Engine, so a whole network run is a
// single sequential event loop — reproducible for a given seed and immune
// to data races by construction.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds.
type Time float64

// Handler is a unit of scheduled work. It runs at its scheduled time with
// the engine's clock already advanced.
type Handler func()

// event is one pending handler. The heap orders events by (at, seq); seq is
// unique per engine, so the order is total and the pop sequence does not
// depend on the heap's internal layout.
type event struct {
	at  Time
	seq uint64 // FIFO tie-break among equal timestamps
	fn  Handler
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine owns the virtual clock and event queue. It is strictly
// single-consumer — every Schedule and Run mutates the heap — so under the
// sharded coordinator each instance is confined to the shard that drives
// it.
type Engine struct {
	// inv carries the build-tag-gated runtime invariant checks; in the
	// default build it is a zero-size no-op (see invariants_off.go). Kept
	// first so the zero-size variant costs no trailing padding.
	inv       engineInvariants
	now       Time
	seq       uint64
	queue     []event // binary min-heap by (at, seq)
	processed uint64
}

// New returns an engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule runs fn at absolute time at. Scheduling in the past (before Now)
// or at a NaN time panics: it is always a logic bug upstream, never a
// recoverable condition.
//
//dophy:hotpath
func (e *Engine) Schedule(at Time, fn Handler) {
	if !(at >= e.now) {
		panic(fmt.Sprintf("sim: schedule at %v, not at or after now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil handler")
	}
	e.queue = append(e.queue, event{at: at, seq: e.seq, fn: fn})
	e.seq++
	e.up(len(e.queue) - 1)
	e.inv.checkHeap(e)
}

// After runs fn after delay d from the current time.
//
//dophy:hotpath
func (e *Engine) After(d Time, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now+d, fn)
}

// up sifts the event at index i towards the root.
func (e *Engine) up(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// down sifts the event at index i towards the leaves.
func (e *Engine) down(i int) {
	q := e.queue
	n := len(q)
	ev := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = ev
}

// step pops the earliest event, advances the clock to it and runs it.
func (e *Engine) step() {
	q := e.queue
	n := len(q) - 1
	ev := q[0]
	q[0] = q[n]
	q[n] = event{} // release the closure for GC
	e.queue = q[:n]
	if n > 1 {
		e.down(0)
	}
	e.inv.checkHeap(e)
	e.now = ev.at
	e.processed++
	//dophy:allow hotpathalloc -- event dispatch: handlers are closures vetted at their creation sites, which live in annotated hot paths
	ev.fn()
}

// Run executes events until the queue drains or the clock would pass until
// (inclusive upper bound; use math.Inf(1) for "no limit"). It returns the
// clock: until if an event remains queued beyond it, otherwise wherever
// the last event left it.
//
//dophy:hotpath
func (e *Engine) Run(until Time) Time {
	for len(e.queue) > 0 {
		if e.queue[0].at > until {
			// Leave the event queued; advance clock to the horizon so
			// successive Run calls observe monotone time.
			e.now = until
			return e.now
		}
		e.step()
	}
	return e.now
}

// NextAt returns the scheduled time of the earliest pending event, or +Inf
// when the queue is empty. The shard barrier uses this to compute safe
// lookahead horizons without popping.
//
//dophy:hotpath
func (e *Engine) NextAt() Time {
	if len(e.queue) == 0 {
		return Time(math.Inf(1))
	}
	return e.queue[0].at
}

// RunBefore executes events strictly before horizon, then advances the
// clock to horizon so successive windows observe monotone time. Events at
// exactly horizon stay queued — the conservative-lookahead contract is that
// a window [start, horizon) owns only the events inside it, while arrivals
// injected at the barrier land at or after horizon. It returns horizon, or
// the clock if that is already later.
//
//dophy:hotpath
func (e *Engine) RunBefore(horizon Time) Time {
	for len(e.queue) > 0 && e.queue[0].at < horizon {
		e.step()
	}
	if e.now < horizon {
		e.now = horizon
	}
	return e.now
}
