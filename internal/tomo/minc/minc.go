// Package minc is the tree-structured maximum-likelihood loss-tomography
// baseline in the lineage of MINC (Cáceres, Duffield, Horowitz, Towsley):
// given a static routing tree and per-source end-to-end delivery counts, it
// estimates per-link (per-hop, post-ARQ) drop probabilities by
// expectation–maximisation, exploiting that sources sharing tree links share
// loss.
//
// E-step: a lost packet from source s died on exactly one link of s's path;
// the posterior probability it died on link l is the chance it survived all
// links before l times the drop probability of l, normalised over the path.
// M-step: each link's drop probability is its expected deaths over its
// expected traversals. This is the textbook EM for serial-link loss and
// converges monotonically in likelihood.
//
// Like the LSQ baseline it assumes the epoch's paths were static and sees
// only post-ARQ outcomes, so it inherits both weaknesses the paper targets.
package minc

import (
	"math"

	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/geomle"
	"dophy/internal/topo"
)

// Config tunes the EM.
type Config struct {
	MaxAttempts int   // MAC budget, for per-attempt conversion
	MinExpected int64 // skip origins with fewer expected packets
	MaxIters    int
	Tol         float64 // max per-link change to declare convergence
	// DirtyThreshold enables incremental re-estimation when positive: an
	// epoch whose dirty-row fraction is at or below the threshold seeds
	// the EM sweep from the previous epoch's converged drops (so it
	// converges in a handful of iterations) instead of the global
	// aggregate; above it, or when the link set changed, the estimator
	// falls back to the bitwise-exact from-scratch EM. Zero (the default)
	// keeps the historical always-from-scratch behaviour.
	DirtyThreshold float64
}

// DefaultDirtyThreshold is the dirty-row fraction above which incremental
// mode falls back to the from-scratch EM.
const DefaultDirtyThreshold = 0.25

// DefaultConfig returns standard EM settings.
func DefaultConfig() Config {
	return Config{MaxAttempts: 8, MinExpected: 5, MaxIters: 500, Tol: 1e-9}
}

// Estimator runs tree EM for successive epochs of one topology, reusing
// its path and EM scratch — and the estimate vector itself — across calls:
// Estimate returns a borrowed view of estimator-owned scratch, rewritten by
// the next call.
type Estimator struct {
	cfg Config
	lt  *topo.LinkTable

	// colOf maps table index -> compact EM slot (-1 = not on any usable
	// path this epoch); cols is the inverse, in first-encounter order over
	// origins — the slot order the EM sweep has always used.
	colOf    []int32        // indexed by topo.LinkIdx; holds compact slots
	cols     []topo.LinkIdx // compact slot -> table index
	idxBuf   []topo.LinkIdx // one source's table indices, reused per origin
	pathBuf  []int32        // all sources' compact slots, flattened
	srcStart []int32        // pathBuf offset per source, plus a final sentinel
	deliv    []float64
	lost     []float64

	drop       []float64
	deaths     []float64
	traversals []float64
	accel1     []float64 // previous EM iterate, for Aitken extrapolation
	accel2     []float64 // iterate before that

	rowOrigin []int32   // origin node per source row, for cross-epoch matching
	out       []float64 // the returned estimate: borrowed scratch, rewritten per call

	// Incremental state (maintained only when cfg.DirtyThreshold > 0):
	// the previous epoch's rows, converged drops and output, so a
	// mostly-clean epoch can warm-start the EM from where it converged.
	haveState     bool
	prevCols      []topo.LinkIdx
	prevRowOrigin []int32
	dropPrev      []float64
	outPrev       []float64
	stats         Stats
}

// Stats describes which path the last Estimate call took.
type Stats struct {
	// Mode is "off" (DirtyThreshold disabled), "full" (from-scratch EM),
	// "warm" (EM seeded from the previous epoch's converged drops) or
	// "copy" (zero dirty rows: previous output returned verbatim).
	Mode      string
	DirtyRows int
	Rows      int
	Iters     int // EM sweeps run (0 in copy mode)
}

// LastStats reports how the most recent Estimate call was solved.
func (est *Estimator) LastStats() Stats { return est.stats }

// NewEstimator validates the configuration and binds it to a link table.
func NewEstimator(lt *topo.LinkTable, cfg Config) *Estimator {
	if cfg.MaxAttempts < 1 {
		panic("minc: MaxAttempts must be >= 1")
	}
	est := &Estimator{cfg: cfg, lt: lt, colOf: make([]int32, lt.Len())}
	for i := range est.colOf {
		est.colOf[i] = -1
	}
	return est
}

// resize returns s with length n and every element zeroed, reusing the
// backing array when it is large enough.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		//dophy:allow hotpathalloc -- scratch grows to the epoch's high-water mark, then is reused
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Estimate runs tree EM over one epoch. The result is dense, indexed by
// the link table; NaN marks links not on any usable path. The returned
// slice aliases the estimator's scratch and is valid until the next
// Estimate call; retaining it across epochs requires copying it out.
//
//dophy:hotpath
func (est *Estimator) Estimate(e *epochobs.Epoch) []float64 {
	cfg := est.cfg
	for _, c := range est.cols {
		est.colOf[c] = -1
	}
	est.cols = est.cols[:0]
	est.pathBuf = est.pathBuf[:0]
	est.srcStart = est.srcStart[:0]
	est.deliv = est.deliv[:0]
	est.lost = est.lost[:0]
	est.rowOrigin = est.rowOrigin[:0]

	for origin := range e.Delivered {
		id := topo.NodeID(origin)
		if id == topo.Sink {
			continue
		}
		n := e.Expected[origin]
		if n < cfg.MinExpected {
			continue
		}
		mark := len(est.pathBuf)
		buf, ok := e.AppendPathIndices(est.lt, id, est.idxBuf[:0])
		est.idxBuf = buf
		if !ok {
			continue
		}
		// Translate the table indices into compact EM slots, assigned in
		// first-encounter order. idxBuf holds LinkIdx values, pathBuf holds
		// slots: the two integer domains never share a buffer.
		for _, li := range est.idxBuf {
			if est.colOf[li] < 0 {
				est.colOf[li] = int32(len(est.cols))
				est.cols = append(est.cols, li)
			}
			est.pathBuf = append(est.pathBuf, est.colOf[li])
		}
		d := float64(e.Delivered[origin])
		if d > float64(n) {
			d = float64(n)
		}
		est.srcStart = append(est.srcStart, int32(mark))
		est.deliv = append(est.deliv, d)
		est.lost = append(est.lost, float64(n)-d)
		est.rowOrigin = append(est.rowOrigin, int32(origin))
	}
	est.srcStart = append(est.srcStart, int32(len(est.pathBuf)))

	est.out = resize(est.out, est.lt.Len())
	out := est.out
	for i := range out {
		out[i] = math.NaN()
	}
	nsrc := len(est.deliv)
	nlinks := len(est.cols)
	est.stats = Stats{Mode: "off", Rows: nsrc}
	if nsrc == 0 || nlinks == 0 {
		// Nothing to cache or diff against: force a full EM next epoch.
		est.haveState = false
		return out
	}

	dirtyRows := 0
	warm := false
	if cfg.DirtyThreshold > 0 && est.haveState && sameCols(est.cols, est.prevCols) {
		// Merge-walk current and previous rows (both in ascending origin
		// order): a matched row is dirty when its statistics or path
		// changed, unmatched rows on either side are dirty by definition.
		i, j := 0, 0
		for i < nsrc || j < len(est.prevRowOrigin) {
			switch {
			case j >= len(est.prevRowOrigin) || (i < nsrc && est.rowOrigin[i] < est.prevRowOrigin[j]):
				dirtyRows++
				i++
			case i >= nsrc || est.rowOrigin[i] > est.prevRowOrigin[j]:
				dirtyRows++
				j++
			default:
				if e.PathDirty(topo.NodeID(est.rowOrigin[i])) {
					dirtyRows++
				}
				i++
				j++
			}
		}
		if dirtyRows == 0 {
			// Identical inputs: the cached output is bitwise what a
			// re-run would produce. All cached state stays valid.
			copy(out, est.outPrev)
			est.stats = Stats{Mode: "copy", Rows: nsrc}
			return out
		}
		denom := nsrc
		if len(est.prevRowOrigin) > denom {
			denom = len(est.prevRowOrigin)
		}
		warm = float64(dirtyRows) <= cfg.DirtyThreshold*float64(denom)
	}

	est.drop = resize(est.drop, nlinks)
	est.deaths = resize(est.deaths, nlinks)
	est.traversals = resize(est.traversals, nlinks)
	drop, deaths, traversals := est.drop, est.deaths, est.traversals
	if warm {
		// Seed from the previous epoch's converged drops: with few dirty
		// rows the fixed point barely moves, so the sweep converges in a
		// handful of iterations instead of starting from the aggregate.
		copy(drop, est.dropPrev)
		// Boundary links decay geometrically toward zero and never stop;
		// chained warm epochs would carry them into denormal range, where
		// every arithmetic op slows by an order of magnitude. Zero is the
		// value they are converging to: flush them there.
		for i, d := range drop {
			if d < 1e-250 {
				drop[i] = 0
			}
		}
	} else {
		// Initialise drops uniformly from the aggregate loss rate.
		var totalExp, totalLost float64
		for s := 0; s < nsrc; s++ {
			totalExp += est.deliv[s] + est.lost[s]
			totalLost += est.lost[s]
		}
		init := totalLost / math.Max(totalExp, 1) / 2
		if init <= 0 {
			init = 1e-4
		}
		for i := range drop {
			drop[i] = init
		}
	}

	// In warm mode the sweep is Aitken-accelerated: EM converges linearly,
	// so per-coordinate errors decay geometrically and three consecutive
	// iterates determine the limit. Every aitkenPeriod sweeps the iterate
	// jumps to that extrapolated limit; the unchanged maxDelta < Tol check
	// still decides convergence, so the result is a genuine fixed point to
	// the same tolerance — the extrapolation only skips the slow tail. The
	// from-scratch path stays untouched (and bitwise-historical).
	const aitkenPeriod = 8
	var accel1, accel2 []float64
	if warm {
		est.accel1 = resize(est.accel1, nlinks)
		est.accel2 = resize(est.accel2, nlinks)
		accel1, accel2 = est.accel1, est.accel2
	}
	itersRun := 0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		itersRun++
		if warm {
			copy(accel2, accel1)
			copy(accel1, drop)
		}
		for i := range deaths {
			deaths[i] = 0
			traversals[i] = 0
		}
		for s := 0; s < nsrc; s++ {
			path := est.pathBuf[est.srcStart[s]:est.srcStart[s+1]]
			// Path delivery probability S_k = prod(1 - d_j).
			pathDeliver := 1.0
			for _, li := range path {
				pathDeliver *= 1 - drop[li]
			}
			pathLoss := 1 - pathDeliver
			// Delivered packets were offered to every link on the path.
			if est.deliv[s] > 0 {
				for _, li := range path {
					traversals[li] += est.deliv[s]
				}
			}
			if est.lost[s] > 0 && pathLoss > 1e-15 {
				// surv tracks S_{i-1}, the probability of surviving all
				// links before the current one.
				surv := 1.0
				for _, li := range path {
					// P(died exactly at l_i | lost) = S_{i-1} d_i / L.
					deaths[li] += est.lost[s] * surv * drop[li] / pathLoss
					// P(offered to l_i | lost) = (S_{i-1} - S_k) / L:
					// the packet survived the prefix and died at or after
					// this link.
					traversals[li] += est.lost[s] * (surv - pathDeliver) / pathLoss
					surv *= 1 - drop[li]
				}
			}
		}
		maxDelta := 0.0
		for i := range drop {
			if traversals[i] <= 0 {
				continue
			}
			nd := deaths[i] / traversals[i]
			if nd < 0 {
				nd = 0
			}
			if nd > 1-1e-9 {
				nd = 1 - 1e-9
			}
			if d := math.Abs(nd - drop[i]); d > maxDelta {
				maxDelta = d
			}
			drop[i] = nd
		}
		if maxDelta < cfg.Tol {
			break
		}
		if warm && iter >= 2 && iter%aitkenPeriod == 0 {
			// drop = x_{k+1}, accel1 = x_k, accel2 = x_{k-1}: when a
			// coordinate's successive differences shrink geometrically
			// (0 < r < 1), jump it to the limit of the geometric series.
			for i := range drop {
				d1 := accel1[i] - accel2[i]
				d2 := drop[i] - accel1[i]
				if d1 == 0 {
					continue
				}
				r := d2 / d1
				if r <= 0 || r >= 0.9999 {
					continue
				}
				ex := drop[i] + d2*r/(1-r)
				if ex < 0 {
					ex = 0
				}
				if ex > 1-1e-9 {
					ex = 1 - 1e-9
				}
				drop[i] = ex
			}
		}
	}
	for j, li := range est.cols {
		out[li] = geomle.LossFromDrop(drop[j], cfg.MaxAttempts)
	}
	est.stats.Iters = itersRun
	if cfg.DirtyThreshold > 0 {
		if warm {
			est.stats = Stats{Mode: "warm", DirtyRows: dirtyRows, Rows: nsrc, Iters: itersRun}
		} else {
			est.stats = Stats{Mode: "full", DirtyRows: dirtyRows, Rows: nsrc, Iters: itersRun}
		}
		// Snapshot this epoch's rows and fixed point for the next diff.
		est.prevCols = append(est.prevCols[:0], est.cols...)
		est.prevRowOrigin = append(est.prevRowOrigin[:0], est.rowOrigin...)
		est.dropPrev = append(est.dropPrev[:0], drop...)
		est.outPrev = append(est.outPrev[:0], out...)
		est.haveState = true
	}
	return out
}

// sameCols reports whether two compact slot orders are identical.
func sameCols(a, b []topo.LinkIdx) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
