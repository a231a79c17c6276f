// This file is the epoch pipeline: the one loop that turns a session's
// epochs into a RunResult, as a two-stage overlap of simulation and
// estimation. The session's cutEpoch harvests everything the sink observed
// in an epoch into an immutable epochCut; the estimation stage (estBank)
// turns a cut into the finished EpochOutcome. Cuts travel over a channel
// to a single estimation goroutine, so epoch k's (often expensive)
// inference runs while the simulator is already producing epoch k+1.
// There is exactly one sender and one receiver, every cut crosses the
// channel exactly once, and the estimator bank's scratch is touched only
// by the estimation goroutine, so the outcome stream is identical — same
// values, same order — to calling the session's RunEpoch in a loop.
//
//dophy:concurrency-boundary -- single-producer single-consumer epoch hand-off; cuts are immutable after construction and the bank is owned by the estimation goroutine
package experiment

import (
	"math"

	"dophy/internal/topo"
)

// epochSession is what the epoch loop drives: Session and ShardedSession.
type epochSession interface {
	cutEpoch() *epochCut
	Topology() *topo.Topology
	BeaconsSent() int64
	Events() uint64
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

// runEpochs runs sc.Epochs epochs of s with simulation and estimation
// overlapped: while the estimation goroutine fits epoch k with bank, this
// goroutine simulates epoch k+1. The pipeline is purely a wall-clock
// optimisation, worth roughly min(sim, estimation) time per epoch when the
// two stages are balanced.
func runEpochs(sc Scenario, s epochSession, bank *estBank) *RunResult {
	res := &RunResult{Scenario: sc, Topology: s.Topology()}
	// Buffer one cut so the simulator can run a full epoch ahead while the
	// previous epoch is still being estimated.
	cuts := make(chan *epochCut, 1)
	outs := make(chan *EpochOutcome, 1)
	// From here on the bank belongs to the estimation goroutine.
	go estLoop(bank, cuts, outs)
	// Closing cuts on every return, panics included, lets the estimation
	// goroutine exit instead of waiting forever for another cut.
	defer close(cuts)
	receive := func() {
		eo := <-outs
		res.Epochs = append(res.Epochs, eo)
		res.EstSeconds += eo.EstSeconds
	}
	var totalPackets, totalChanges int64
	for e := 0; e < sc.Epochs; e++ {
		c := s.cutEpoch()
		// Truth is complete at cut time; accumulate run totals here so the
		// receive side only collects finished outcomes.
		totalPackets += c.out.Truth.Delivered
		totalChanges += c.out.Truth.ParentChanges
		cuts <- c
		if e >= 1 {
			receive()
		}
	}
	if sc.Epochs > 0 {
		receive()
		res.MeanPacketsPerEpoch = float64(totalPackets) / float64(sc.Epochs)
		res.ParentChangesPerNodePerEpoch =
			float64(totalChanges) / float64(sc.Epochs) / math.Max(1, float64(s.Topology().N()-1))
	}
	res.BeaconsSent = s.BeaconsSent()
	res.Events = s.Events()
	return res
}
