// Package lsq is the linear least-squares loss-tomography baseline: the
// classic static-path method that writes each source's end-to-end delivery
// ratio as the product of per-link (per-hop, post-ARQ) success
// probabilities, takes logs, and solves the resulting linear system over the
// assumed routing tree with non-negativity constraints.
//
// Its two structural weaknesses are exactly what the paper exploits:
//
//  1. It sees only end-to-end delivery, and with ARQ almost everything is
//     delivered, so per-hop drop probabilities are tiny and the implied
//     per-attempt loss is poorly identified.
//  2. It assumes the epoch's paths were static; under dynamic parent
//     selection the attribution of loss to links smears.
package lsq

import (
	"math"

	"dophy/internal/mat"
	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/geomle"
	"dophy/internal/topo"
)

// Config tunes the baseline.
type Config struct {
	// MaxAttempts is the MAC budget, used to convert per-hop drop
	// probability into per-attempt loss for comparison with Dophy.
	MaxAttempts int
	// MinExpected skips origins with fewer expected packets in the epoch.
	MinExpected int64
	// Iters/Tol drive the NNLS solver.
	Iters int
	Tol   float64
	// DirtyThreshold enables incremental re-estimation when positive: an
	// epoch whose dirty-row fraction is at or below the threshold reuses
	// the previous epoch's Gram matrix (rank-k updated) and warm-starts
	// the NNLS solve from the previous solution; above it the estimator
	// falls back to the bitwise-exact from-scratch solve. Zero (the
	// default) keeps the historical always-from-scratch behaviour.
	DirtyThreshold float64
}

// DefaultDirtyThreshold is the dirty-row fraction above which incremental
// mode falls back to a full solve: past roughly a quarter of the rows the
// rank-k update and the longer warm iteration stop paying for themselves.
const DefaultDirtyThreshold = 0.25

// DefaultConfig returns solver settings adequate for network-sized systems.
func DefaultConfig() Config {
	return Config{MaxAttempts: 8, MinExpected: 5, Iters: 4000, Tol: 1e-10}
}

// Estimator solves the baseline for successive epochs of one topology,
// reusing its row/column scratch, system matrix, NNLS workspace and the
// estimate vector itself across calls: Estimate returns a borrowed view of
// estimator-owned scratch, rewritten by the next call.
type Estimator struct {
	cfg Config
	lt  *topo.LinkTable

	a    mat.Dense      // system matrix scratch, reshaped per epoch
	nnls mat.NNLSSolver // solver scratch

	// colOf maps table index -> compact solver column (-1 = not on any
	// usable path this epoch); cols is the inverse, in first-encounter
	// order over origins — the column order the NNLS solve has always used.
	colOf     []int32        // indexed by topo.LinkIdx; holds compact columns
	cols      []topo.LinkIdx // compact column -> table index
	pathBuf   []topo.LinkIdx // all rows' link indices, flattened
	rowStart  []int32        // pathBuf offset per row, plus a final sentinel
	b         []float64
	rowOrigin []int32   // origin node per row, for matching rows across epochs
	out       []float64 // the returned estimate: borrowed scratch, rewritten per call

	// Incremental state (maintained only when cfg.DirtyThreshold > 0): the
	// previous epoch's rows, assembled system and solution, so a
	// mostly-clean epoch can rank-k-update the Gram matrix and warm-start
	// from xPrev instead of re-solving from scratch.
	haveState     bool
	prevCols      []topo.LinkIdx
	prevPathBuf   []topo.LinkIdx
	prevRowStart  []int32
	prevB         []float64
	prevRowOrigin []int32
	gram          mat.Dense
	atb           []float64
	xPrev         []float64
	outPrev       []float64
	subRows       mat.Dense // rank-k update scratch: old contents of dirty rows
	addRows       mat.Dense // rank-k update scratch: new contents of dirty rows
	subSrc        []int32   // previous-row indices leaving the Gram matrix
	addSrc        []int32   // current-row indices entering the Gram matrix
	stats         Stats
}

// Stats describes which path the last Estimate call took.
type Stats struct {
	// Mode is "off" (DirtyThreshold disabled), "full" (from-scratch
	// solve), "warm" (rank-k Gram update + warm-started solve) or "copy"
	// (zero dirty rows: previous output returned verbatim).
	Mode      string
	DirtyRows int // dirty rows detected (matched-and-changed + added + removed)
	Rows      int // rows in the current system
}

// LastStats reports how the most recent Estimate call was solved.
func (est *Estimator) LastStats() Stats { return est.stats }

// NewEstimator validates the configuration and binds it to a link table.
func NewEstimator(lt *topo.LinkTable, cfg Config) *Estimator {
	if cfg.MaxAttempts < 1 {
		panic("lsq: MaxAttempts must be >= 1")
	}
	est := &Estimator{cfg: cfg, lt: lt, colOf: make([]int32, lt.Len())}
	for i := range est.colOf {
		est.colOf[i] = -1
	}
	return est
}

// Estimate runs the baseline over one epoch of sink observations. The
// result is dense, indexed by the link table; NaN marks links not on any
// usable path. The returned slice aliases the estimator's scratch and is
// valid until the next Estimate call; retaining it across epochs requires
// copying it out.
//
//dophy:hotpath
func (est *Estimator) Estimate(e *epochobs.Epoch) []float64 {
	cfg := est.cfg
	for _, c := range est.cols {
		est.colOf[c] = -1
	}
	est.cols = est.cols[:0]
	est.pathBuf = est.pathBuf[:0]
	est.rowStart = est.rowStart[:0]
	est.b = est.b[:0]
	est.rowOrigin = est.rowOrigin[:0]

	// Gather usable origins and the link set their tree paths cover.
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
		buf, ok := e.AppendPathIndices(est.lt, id, est.pathBuf)
		est.pathBuf = buf
		if !ok {
			continue
		}
		dr := float64(e.Delivered[origin]) / float64(n)
		if dr <= 0 {
			// Nothing arrived: unbounded loss; clamp to a small ratio so
			// the log stays finite (one phantom delivery).
			dr = 0.5 / float64(n)
		}
		if dr > 1 {
			dr = 1
		}
		est.rowStart = append(est.rowStart, int32(mark))
		est.b = append(est.b, -math.Log(dr))
		est.rowOrigin = append(est.rowOrigin, int32(origin))
		for _, li := range est.pathBuf[mark:] {
			if est.colOf[li] < 0 {
				est.colOf[li] = int32(len(est.cols))
				est.cols = append(est.cols, li)
			}
		}
	}
	est.rowStart = append(est.rowStart, int32(len(est.pathBuf)))

	est.out = resizeFloats(est.out, est.lt.Len())
	out := est.out
	for i := range out {
		out[i] = math.NaN()
	}
	rows := len(est.b)
	est.stats = Stats{Mode: "off", Rows: rows}
	if rows == 0 || len(est.cols) == 0 {
		// Nothing to cache or diff against: force a full solve next epoch.
		est.haveState = false
		return out
	}
	if cfg.DirtyThreshold <= 0 {
		// Historical from-scratch path, byte-for-byte.
		est.a.Reshape(rows, len(est.cols))
		a := &est.a
		for i := 0; i < rows; i++ {
			for _, li := range est.pathBuf[est.rowStart[i]:est.rowStart[i+1]] {
				a.Set(i, int(est.colOf[li]), 1)
			}
		}
		x := est.nnls.Solve(a, est.b, cfg.Iters, cfg.Tol)
		for j, li := range est.cols {
			drop := 1 - math.Exp(-x[j]) // per-hop post-ARQ drop probability
			out[li] = geomle.LossFromDrop(drop, cfg.MaxAttempts)
		}
		return out
	}
	est.estimateIncremental(e, out)
	return out
}

// sameCols reports whether two compact column orders are identical.
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

// resizeFloats returns s with length n and every element zeroed, reusing
// the backing array when it is large enough.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		//dophy:allow hotpathalloc -- scratch grows to the epoch's high-water mark, then is reused
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// estimateIncremental solves the already-gathered system, reusing the
// previous epoch's Gram matrix and solution when few enough rows changed.
// Rows are matched across epochs by origin; a matched row is dirty when
// the origin's delivery statistics or any parent on its path changed
// (epochobs.Epoch.PathDirty), and unmatched rows on either side are dirty
// by definition. Fallbacks — no prior state, a changed column order, or a
// dirty fraction above cfg.DirtyThreshold — run the from-scratch assembly,
// which is bitwise-identical to the historical solve.
//
//dophy:hotpath
func (est *Estimator) estimateIncremental(e *epochobs.Epoch, out []float64) {
	cfg := est.cfg
	rows := len(est.b)
	ncols := len(est.cols)

	dirtyRows := 0
	warm := est.haveState && sameCols(est.cols, est.prevCols)
	if warm {
		// Merge-walk current and previous rows; both are in ascending
		// origin order by construction. subSrc collects previous-row
		// indices whose old contents must leave the Gram matrix, addSrc
		// current-row indices whose new contents must enter it.
		est.subSrc = est.subSrc[:0]
		est.addSrc = est.addSrc[:0]
		i, j := 0, 0
		for i < rows || j < len(est.prevRowOrigin) {
			switch {
			case j >= len(est.prevRowOrigin) || (i < rows && est.rowOrigin[i] < est.prevRowOrigin[j]):
				est.addSrc = append(est.addSrc, int32(i)) // row added this epoch
				dirtyRows++
				i++
			case i >= rows || est.rowOrigin[i] > est.prevRowOrigin[j]:
				est.subSrc = append(est.subSrc, int32(j)) // row removed this epoch
				dirtyRows++
				j++
			default:
				if e.PathDirty(topo.NodeID(est.rowOrigin[i])) {
					est.subSrc = append(est.subSrc, int32(j))
					est.addSrc = append(est.addSrc, int32(i))
					dirtyRows++
				}
				i++
				j++
			}
		}
		if dirtyRows == 0 {
			// Identical system: the cached output is bitwise what a
			// re-solve would produce. All cached state stays valid.
			copy(out, est.outPrev)
			est.stats = Stats{Mode: "copy", Rows: rows}
			return
		}
		denom := rows
		if len(est.prevRowOrigin) > denom {
			denom = len(est.prevRowOrigin)
		}
		if float64(dirtyRows) > cfg.DirtyThreshold*float64(denom) {
			warm = false
		}
	}

	var x []float64
	if warm {
		// Rank-k Gram update: every entry of the 0/1 incidence system is
		// an exact small integer, so the updated Gram is bitwise the one
		// a full rebuild would produce.
		est.subRows.Reshape(len(est.subSrc), ncols)
		for r, j := range est.subSrc {
			for _, li := range est.prevPathBuf[est.prevRowStart[j]:est.prevRowStart[j+1]] {
				est.subRows.Set(r, int(est.colOf[li]), 1)
			}
		}
		est.addRows.Reshape(len(est.addSrc), ncols)
		for r, i := range est.addSrc {
			for _, li := range est.pathBuf[est.rowStart[i]:est.rowStart[i+1]] {
				est.addRows.Set(r, int(est.colOf[li]), 1)
			}
		}
		est.gram.GramUpdateRows(&est.subRows, &est.addRows)
		// A^T b rebuilt in full row order: each term multiplies a 0/1
		// incidence entry, so this sparse accumulation adds the exact
		// values TMulVecTo adds over the materialised matrix, in the same
		// order.
		est.atb = resizeFloats(est.atb, ncols)
		for i := 0; i < rows; i++ {
			bi := est.b[i]
			if bi == 0 {
				continue
			}
			for _, li := range est.pathBuf[est.rowStart[i]:est.rowStart[i+1]] {
				est.atb[est.colOf[li]] += bi
			}
		}
		x = est.nnls.SolveWarm(&est.gram, est.atb, est.xPrev, cfg.Iters, cfg.Tol)
		est.stats = Stats{Mode: "warm", DirtyRows: dirtyRows, Rows: rows}
	} else {
		// From scratch, assembled exactly as NNLSSolver.Solve assembles
		// internally — bitwise the historical result — but into the
		// estimator's own Gram/atb so the next epoch can update in place.
		est.a.Reshape(rows, ncols)
		a := &est.a
		for i := 0; i < rows; i++ {
			for _, li := range est.pathBuf[est.rowStart[i]:est.rowStart[i+1]] {
				a.Set(i, int(est.colOf[li]), 1)
			}
		}
		a.GramInto(&est.gram)
		est.atb = resizeFloats(est.atb, ncols)
		a.TMulVecTo(est.atb, est.b)
		x = est.nnls.SolveWarm(&est.gram, est.atb, nil, cfg.Iters, cfg.Tol)
		est.stats = Stats{Mode: "full", DirtyRows: dirtyRows, Rows: rows}
	}
	for j, li := range est.cols {
		drop := 1 - math.Exp(-x[j]) // per-hop post-ARQ drop probability
		out[li] = geomle.LossFromDrop(drop, cfg.MaxAttempts)
	}

	// Snapshot this epoch's rows and solution for the next diff.
	est.prevCols = append(est.prevCols[:0], est.cols...)
	est.prevPathBuf = append(est.prevPathBuf[:0], est.pathBuf...)
	est.prevRowStart = append(est.prevRowStart[:0], est.rowStart...)
	est.prevB = append(est.prevB[:0], est.b...)
	est.prevRowOrigin = append(est.prevRowOrigin[:0], est.rowOrigin...)
	est.xPrev = append(est.xPrev[:0], x...)
	est.outPrev = append(est.outPrev[:0], out...)
	est.haveState = true
}
