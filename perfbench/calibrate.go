package main

import (
	"container/heap"
	"context"
	"runtime/pprof"
	"time"
)

// The machines this benchmark runs on are shared: identical work can take
// twice as long from one minute to the next. Every timing the benchmark
// reports is therefore calibrated. At both ends of every timed segment of
// an iteration (the set-up and each epoch) it times a fixed reference
// kernel that uses no repository code, and scales the segment's host time
// by refNominalS / (mean of the two kernel times): a calibrated second is
// a host second on a machine where the kernel takes refNominalS. A change
// to the simulator moves calibrated times exactly as it moves host times;
// a slower moment of the host moves the kernel too and cancels. The raw
// host times are kept in the report.

// refNominalS is about the kernel's median time on a shared two-core Xeon
// with go1.24.0, so calibrated seconds read close to host seconds there.
const refNominalS = 0.14

// calibrator runs the kernel at segment boundaries. A nil calibrator
// calibrates nothing: every factor is 1.
type calibrator struct {
	last  float64   // kernel time at the start of the current segment
	times []float64 // every kernel time so far

	// The kernel's working set, built once so that kernel runs allocate
	// nothing and leave the workload's allocation counts alone.
	queue  refQueue
	counts map[uint64]int
}

// Kernel size: a 4096-event queue, a 16384-key map, 500,000 steps (about
// refNominalS). Its working set adds about 0.5 MiB to the
// process's resident set.
const (
	refEvents = 4096
	refKeys   = 16384
	refSteps  = 500000
)

func newCalibrator() *calibrator {
	c := &calibrator{counts: make(map[uint64]int, refKeys)}
	for i := 0; i < refEvents; i++ {
		c.queue = append(c.queue, &refEvent{})
	}
	for k := uint64(0); k < refKeys; k++ {
		c.counts[k] = 0
	}
	c.kernel() // the first run warms caches
	c.last = c.kernel()
	return c
}

// endSegment runs the kernel and returns the calibration factor of the
// segment that just ended.
func (c *calibrator) endSegment() float64 {
	if c == nil {
		return 1
	}
	r := c.kernel()
	f := refNominalS / ((c.last + r) / 2)
	c.last = r
	c.times = append(c.times, r)
	return f
}

// refEvent is a kernel event: a time key and a sequence number, like the
// simulator's events.
type refEvent struct {
	at  uint64
	seq int
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// kernel runs a fixed discrete-event-like loop — reschedule the earliest
// event of a heap and update a hash map, the simulator's two commonest
// kinds of work — and returns its host time in seconds. Its profile
// samples are labelled as outside the workload.
func (c *calibrator) kernel() (secs float64) {
	pprof.Do(context.Background(), pprof.Labels(outsideLabel, "calibration"), func(context.Context) {
		start := time.Now()
		x := uint64(88172645463325252)
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		for i, e := range c.queue {
			e.at, e.seq = next()%1000000, i
		}
		heap.Init(&c.queue)
		for i := 0; i < refSteps; i++ {
			e := c.queue[0]
			c.counts[next()%refKeys] += e.seq
			e.at += next()%1000 + 1
			heap.Fix(&c.queue, 0)
		}
		secs = time.Since(start).Seconds()
	})
	return secs
}
