package radio

import "fixture/internal/topo"

// Static keys its link qualities by link, which densebound forbids in the
// radio package: per-link state there is indexed by the link table.
type Static struct {
	prr map[topo.Link]float64 // want "keyed by topo.Link"
}

// RandomWalk is the approved shape: one state value per table index.
type RandomWalk struct {
	links []walkState
}

type walkState struct {
	logitPRR float64
}
