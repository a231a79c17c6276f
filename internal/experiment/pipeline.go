// This file is the epoch pipeline: a two-stage overlap of simulation and
// estimation. Session.cutEpoch harvests everything the sink observed in an
// epoch into an immutable epochCut; the estimation stage (estBank) turns a
// cut into the finished EpochOutcome. Sequential Run composes the stages
// on one goroutine; RunPipelined sends cuts over a channel to a single
// estimation goroutine so epoch k's (often expensive) inference runs while
// the simulator is already producing epoch k+1. There is exactly one
// sender and one receiver, every cut crosses the channel exactly once, and
// the estimator bank's scratch is touched only by the estimation
// goroutine, so the outcome stream is identical — same values, same order
// — to the sequential composition for the same scenario.
//
//dophy:concurrency-boundary -- single-producer single-consumer epoch hand-off; cuts are immutable after construction and the bank is owned by the estimation goroutine
package experiment

import (
	"math"
	"sync/atomic"

	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/lsq"
	"dophy/internal/tomo/minc"
	"dophy/internal/topo"
)

// pipelined toggles the two-stage epoch pipeline inside Run.
var pipelined atomic.Bool

// SetPipelined switches Run between the sequential epoch loop and the
// two-stage pipeline, returning the previous setting. Like SetWorkers the
// toggle is package-global so cmd/dophy-bench applies it once for every
// experiment. The produced tables are identical either way; only wall
// time changes.
func SetPipelined(on bool) bool { return pipelined.Swap(on) }

// Pipelined reports whether Run executes epochs through the pipeline.
func Pipelined() bool { return pipelined.Load() }

// incremental toggles dirty-link incremental re-estimation in the
// MINC/LSQ estimator bank.
var incremental atomic.Bool

// SetIncremental switches new sessions' MINC/LSQ estimators between
// from-scratch (the historical default) and incremental re-estimation
// seeded by dirty-link tracking, returning the previous setting. Applies
// to sessions built after the call.
func SetIncremental(on bool) bool { return incremental.Swap(on) }

// Incremental reports whether new sessions use incremental estimators.
func Incremental() bool { return incremental.Load() }

// epochCut is one epoch's complete sink-side harvest, produced by
// Session.cutEpoch and consumed exactly once by estBank.estimate. Sending
// a cut transfers ownership: the simulation side never touches one again,
// which is what makes the estimate stage's writes to out race-free.
type epochCut struct {
	// The outcome travels with the cut: once the cut is sent, the estimation
	// stage owns it and finishes it (the one sanctioned write through a cut).
	out *EpochOutcome   // built by cutEpoch; the estimation stage finishes and returns it
	obs *epochobs.Epoch // the estimators' input; next epoch's DiffFrom only reads it
}

// estBank is the estimation stage's state: the inference estimators whose
// scratch persists across epochs (for reuse, and in incremental mode for
// warm starts). Only the stage that owns the bank — the main goroutine
// under sequential Run, the single estimation goroutine under
// RunPipelined — may call estimate.
type estBank struct {
	lt      *topo.LinkTable
	mincEst *minc.Estimator // the pointer; the estimator's own scratch mutates only under estimate
	lsqEst  *lsq.Estimator  // the pointer; the estimator's own scratch mutates only under estimate
}

// newEstBank builds the MINC/LSQ estimator pair, enabling incremental
// re-estimation when the package toggle is on.
func newEstBank(lt *topo.LinkTable, maxAttempts int) estBank {
	mcfg := minc.DefaultConfig()
	mcfg.MaxAttempts = maxAttempts
	lcfg := lsq.DefaultConfig()
	lcfg.MaxAttempts = maxAttempts
	if Incremental() {
		mcfg.DirtyThreshold = minc.DefaultDirtyThreshold
		lcfg.DirtyThreshold = lsq.DefaultDirtyThreshold
	}
	return estBank{lt: lt, mincEst: minc.NewEstimator(lt, mcfg), lsqEst: lsq.NewEstimator(lt, lcfg)}
}

// estimate runs the inference estimators over one cut and completes its
// EpochOutcome. Called once per cut, in epoch order.
func (b *estBank) estimate(c *epochCut) *EpochOutcome {
	eo := c.out
	start := nowNanos()
	// Estimate returns borrowed estimator scratch, rewritten next epoch; the
	// SchemeEpoch outlives the epoch, so this is the one copy-out boundary.
	mSe := &SchemeEpoch{Name: SchemeMINC, Table: b.lt, Loss: append([]float64(nil), b.mincEst.Estimate(c.obs)...)}
	mSt := b.mincEst.LastStats()
	mSe.EstMode, mSe.DirtyRows = mSt.Mode, mSt.DirtyRows
	lSe := &SchemeEpoch{Name: SchemeLSQ, Table: b.lt, Loss: append([]float64(nil), b.lsqEst.Estimate(c.obs)...)}
	lSt := b.lsqEst.LastStats()
	lSe.EstMode, lSe.DirtyRows = lSt.Mode, lSt.DirtyRows
	eo.Schemes[SchemeMINC] = mSe
	eo.Schemes[SchemeLSQ] = lSe
	eo.EstSeconds = float64(nowNanos()-start) / 1e9
	return eo
}

// spawnEst starts the estimation stage. After the go statement the caller
// owns nothing it passed — the bank and both channel ends belong to the
// estimation goroutine until outs is closed.
func spawnEst(b *estBank, cuts <-chan *epochCut, outs chan<- *EpochOutcome) {
	go estLoop(b, cuts, outs)
}

// estLoop drains cuts in order, estimating each and forwarding the
// finished outcome. It closes outs when cuts closes, which is the
// pipeline's termination signal.
func estLoop(b *estBank, cuts <-chan *epochCut, outs chan<- *EpochOutcome) {
	for c := range cuts {
		outs <- b.estimate(c)
	}
	close(outs)
}

// RunPipelined executes the scenario with epoch simulation and estimation
// overlapped: while the estimation goroutine fits epoch k, the main
// goroutine simulates epoch k+1. Output is identical to Run — the bank
// sees the same cuts in the same order — so the pipeline is purely a
// wall-clock optimisation, worth roughly min(sim, estimation) time per
// epoch when the two stages are balanced.
func RunPipelined(sc Scenario) *RunResult {
	s := NewSession(sc)
	res := &RunResult{Scenario: sc, Topology: s.tp}
	// Buffer one cut so the simulator can run a full epoch ahead while the
	// previous epoch is still being estimated.
	cuts := make(chan *epochCut, 1)
	outs := make(chan *EpochOutcome, 1)
	spawnEst(&s.bank, cuts, outs)
	var totalPackets, totalChanges int64
	for e := 0; e < sc.Epochs; e++ {
		c := s.cutEpoch()
		// Truth is complete at cut time; accumulate run totals here so the
		// receive side below only collects finished outcomes.
		totalPackets += c.out.Truth.Delivered
		totalChanges += c.out.Truth.ParentChanges
		cuts <- c
		if e >= 1 {
			eo := <-outs
			res.Epochs = append(res.Epochs, eo)
			res.EstSeconds += eo.EstSeconds
		}
	}
	close(cuts)
	if sc.Epochs > 0 {
		eo := <-outs
		res.Epochs = append(res.Epochs, eo)
		res.EstSeconds += eo.EstSeconds
	}
	if sc.Epochs > 0 {
		res.MeanPacketsPerEpoch = float64(totalPackets) / float64(sc.Epochs)
		res.ParentChangesPerNodePerEpoch =
			float64(totalChanges) / float64(sc.Epochs) / math.Max(1, float64(s.tp.N()-1))
	}
	res.BeaconsSent = s.BeaconsSent()
	res.Events = s.Events()
	return res
}
