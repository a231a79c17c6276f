// Package hotpath exercises the inter-procedural hotpathalloc rule: the
// annotated roots below reach allocation sites directly, one call deep, and
// through unresolvable indirection.
package hotpath

type point struct{ x, y int }

var sink any

var keep *point

// Dispatch is an annotated hot root with direct violations.
//
//dophy:hotpath
func Dispatch(vals []int) {
	for _, v := range vals {
		record(v)
	}
	buf := make([]int, len(vals)) // want "make allocates per call"
	_ = buf
	fn := func() {} // want "closure allocates per call"
	_ = fn
	var fresh []int
	fresh = append(fresh, 1) // want "append grows fresh local slice"
	_ = fresh
	keep = &point{1, 2} // want "&composite literal escapes to the heap"
}

// record is not annotated itself: it is reachable from Dispatch, so the
// boxing below is flagged one call deep with the full chain.
func record(v int) {
	box(v) // want "argument boxes int into interface any [hot path: internal/hotpath.Dispatch -> internal/hotpath.record]"
}

func box(x any) { sink = x }

// handlers is a dispatch table whose function values the static engine
// cannot resolve (nothing in the module is address-taken with this
// signature).
var handlers struct{ fire func(int) }

// FireIndirect shows the unresolvable-callee report; the determflow
// pseudo-source at the same site is waived so only hotpathalloc fires.
//
//dophy:hotpath
func FireIndirect(v int) {
	//dophy:allow determflow -- fixture: the table is filled with deterministic handlers at init
	handlers.fire(v) // want "indirect call on hot path (internal/hotpath.FireIndirect)"
}

// FireWaived demonstrates one pragma waiving several rules at once.
//
//dophy:hotpath
func FireWaived(v int) {
	//dophy:allow hotpathalloc determflow -- fixture: handlers registered at init are deterministic and allocation-free
	handlers.fire(v)
}

// WarmUp demonstrates a justified hotpathalloc waiver on the flagged line.
//
//dophy:hotpath
func WarmUp(n int) []byte {
	//dophy:allow hotpathalloc -- fixture: one-time warm-up allocation amortised over the run
	return make([]byte, n)
}

//dophy:allow hotpathalloc -- fixture: suppresses nothing on purpose // want "stale waiver"
func cold() {}

var _ = cold

// Misspelt allocates freely: its //dophy:hotpth typo is not a hot-path
// annotation, so hotpathalloc skips the body. The unknown-directive
// diagnostic is what surfaces the typo.
//
//dophy:hotpth // want "unknown directive //dophy:hotpth"
func Misspelt(n int) []int { return make([]int, n) }
