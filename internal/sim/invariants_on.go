//go:build dophy_invariants

package sim

import "fmt"

// engineInvariants audits the event heap. Violations panic: every one is an
// engine bug, and the dophy_invariants build exists to fail loudly in
// tests, not to recover.
type engineInvariants struct {
	mutations uint64
}

// checkHeap audits the queue after each push and pop: the first levels
// (where pops happen) on every mutation, the whole heap every 64th, keeping
// the tagged build usable on million-event runs.
func (iv *engineInvariants) checkHeap(e *Engine) {
	iv.mutations++
	q := e.queue
	limit := len(q)
	if iv.mutations%64 != 0 && limit > 16 {
		limit = 16
	}
	for i := 1; i < limit; i++ {
		parent := (i - 1) / 2
		if q[i].before(&q[parent]) {
			panic(fmt.Sprintf("sim: invariant violated: heap order broken at index %d (at=%v seq=%d above at=%v seq=%d)",
				i, q[parent].at, q[parent].seq, q[i].at, q[i].seq))
		}
	}
}
