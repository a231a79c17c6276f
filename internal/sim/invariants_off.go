//go:build !dophy_invariants

package sim

// engineInvariants is the no-op variant: zero-size, empty methods, so the
// default build's hot paths compile to exactly the pre-hook code.
type engineInvariants struct{}

func (engineInvariants) checkHeap(*Engine) {}
