package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"dophy/internal/collect"
	"dophy/internal/core"
	"dophy/internal/experiment"
	"dophy/internal/rng"
	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/lsq"
	"dophy/internal/tomo/minc"
	"dophy/internal/tomo/pathrecord"
	"dophy/internal/topo"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public call. Times are nanoseconds since the run started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes its report. A nil
// tracer records nothing, so untraced iterations share the traced code.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.base).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.base).Nanoseconds()
}

// timed runs f inside a span and returns its duration in seconds.
func (t *tracer) timed(name string, parent int, f func()) float64 {
	sp := t.begin(name, parent)
	start := time.Now()
	f()
	d := time.Since(start).Seconds()
	t.end(sp)
	return d
}

// topoBuild repeats the topology steps of session construction —
// TopoSpec.Build (which builds the LinkTable) and, for sharded sessions,
// Partition and CrossShard — and returns their time.
func (t *tracer) topoBuild(parent int, w *workload, sc experiment.Scenario) float64 {
	return t.timed("topo.build", parent, func() {
		tp := sc.Topo.Build(rng.New(sc.Seed).Split())
		lt := tp.LinkTable()
		if w.shards > 0 {
			lt.CrossShard(tp.Partition(w.shards))
		}
	})
}

// outsideLabel marks CPU profile samples of the benchmark's own work
// outside the workload — journey replay and the reference kernel — which
// the layer fold leaves out of the workload's CPU.
const outsideLabel = "perfbench_outside"

// replay feeds deep copies of a session's journeys to a second, private
// set of the session's estimators, so each estimator's busy time can be
// measured from outside the simulator.
type replay struct {
	pending []*collect.PacketJourney // this epoch's journeys
	dophy   *core.Dophy
	dophyNA *core.Dophy
	paths   []*pathrecord.Recorder // raw, compact, huffman
	obs     *epochobs.Collector
	mincEst *minc.Estimator
	lsqEst  *lsq.Estimator

	journeys    int64
	hopAttempts int64
	ackLost     int64
}

// replayEpoch is one epoch's replay timing, in seconds, and estimator
// statistics.
type replayEpoch struct {
	packets       int
	coreOnJourney float64 // both Dophy instances
	coreEndEpoch  float64
	pathOnJourney float64 // all three path-record variants
	pathEndEpoch  float64
	obsOnJourney  float64
	obsEndEpoch   float64
	mincEstimate  float64
	lsqEstimate   float64
	mincIters     int
	mincRows      int
	lsqRows       int
}

// scaled returns re with its times multiplied by f.
func (re replayEpoch) scaled(f float64) replayEpoch {
	re.coreOnJourney *= f
	re.coreEndEpoch *= f
	re.pathOnJourney *= f
	re.pathEndEpoch *= f
	re.obsOnJourney *= f
	re.obsEndEpoch *= f
	re.mincEstimate *= f
	re.lsqEstimate *= f
	return re
}

// newReplay configures the instances the way experiment.NewSession does.
func newReplay(tp *topo.Topology, sc experiment.Scenario) *replay {
	dcfg := sc.Dophy
	dcfg.MaxAttempts = sc.Mac.MaxRetx + 1
	if dcfg.AggThreshold >= dcfg.MaxAttempts {
		dcfg.AggThreshold = 0
	}
	naCfg := dcfg
	naCfg.AggThreshold = 0
	r := &replay{dophy: core.New(tp, dcfg), dophyNA: core.New(tp, naCfg), obs: epochobs.New(tp.LinkTable())}
	for _, v := range []pathrecord.Variant{pathrecord.Raw, pathrecord.Compact, pathrecord.Huffman} {
		c := pathrecord.DefaultConfig(v)
		c.MaxAttempts = dcfg.MaxAttempts
		c.MinSamples = dcfg.MinSamples
		r.paths = append(r.paths, pathrecord.New(tp, c))
	}
	mcfg := minc.DefaultConfig()
	mcfg.MaxAttempts = dcfg.MaxAttempts
	lcfg := lsq.DefaultConfig()
	lcfg.MaxAttempts = dcfg.MaxAttempts
	if experiment.Incremental() {
		mcfg.DirtyThreshold = minc.DefaultDirtyThreshold
		lcfg.DirtyThreshold = lsq.DefaultDirtyThreshold
	}
	r.mincEst = minc.NewEstimator(tp.LinkTable(), mcfg)
	r.lsqEst = lsq.NewEstimator(tp.LinkTable(), lcfg)
	return r
}

// capture is the session's journey subscriber. The session may recycle a
// journey after its subscribers return, so it is copied.
func (r *replay) capture(j *collect.PacketJourney) {
	c := *j
	c.Hops = append([]collect.Hop(nil), j.Hops...)
	r.pending = append(r.pending, &c)
	r.journeys++
	for _, h := range j.Hops {
		r.hopAttempts += int64(h.Attempts)
		if h.Observed > 0 {
			r.ackLost += int64(h.Attempts - h.Observed)
		}
	}
}

// replayEpoch replays the epoch's captured journeys under the replay
// profiler label and checks the private instances reproduce the
// session's Dophy, MINC and LSQ outputs.
func (t *tracer) replayEpoch(parent int, r *replay, eo *experiment.EpochOutcome) (re replayEpoch, err error) {
	pprof.Do(context.Background(), pprof.Labels(outsideLabel, "replay"), func(context.Context) {
		re, err = r.run(t, parent, eo)
	})
	return re, err
}

func (r *replay) run(t *tracer, parent int, eo *experiment.EpochOutcome) (replayEpoch, error) {
	js := r.pending
	re := replayEpoch{packets: len(js)}
	sp := t.begin("replay", parent)
	defer t.end(sp)

	re.coreOnJourney = t.timed("core.OnJourney", sp, func() {
		for _, j := range js {
			r.dophy.OnJourney(j)
		}
		for _, j := range js {
			r.dophyNA.OnJourney(j)
		}
	})
	var rep *core.EpochReport
	re.coreEndEpoch = t.timed("core.EndEpoch", sp, func() {
		rep = r.dophy.EndEpoch()
		r.dophyNA.EndEpoch()
	})
	re.pathOnJourney = t.timed("pathrecord.OnJourney", sp, func() {
		for _, p := range r.paths {
			for _, j := range js {
				p.OnJourney(j)
			}
		}
	})
	re.pathEndEpoch = t.timed("pathrecord.EndEpoch", sp, func() {
		for _, p := range r.paths {
			p.EndEpoch()
		}
	})
	re.obsOnJourney = t.timed("epochobs.OnJourney", sp, func() {
		for _, j := range js {
			r.obs.OnJourney(j)
		}
	})
	var obs *epochobs.Epoch
	re.obsEndEpoch = t.timed("epochobs.EndEpoch", sp, func() { obs = r.obs.EndEpoch() })

	var err error
	mismatch := func(scheme string) {
		if err == nil {
			err = fmt.Errorf("replayed %s estimates differ from the session's", scheme)
		}
	}
	var loss []float64
	re.mincEstimate = t.timed("minc.Estimate", sp, func() { loss = r.mincEst.Estimate(obs) })
	mst := r.mincEst.LastStats()
	re.mincIters, re.mincRows = mst.Iters, mst.Rows
	if !sameFloats(loss, eo.Schemes[experiment.SchemeMINC].Loss) {
		mismatch("MINC")
	}
	re.lsqEstimate = t.timed("lsq.Estimate", sp, func() { loss = r.lsqEst.Estimate(obs) })
	re.lsqRows = r.lsqEst.LastStats().Rows
	if !sameFloats(loss, eo.Schemes[experiment.SchemeLSQ].Loss) {
		mismatch("LSQ")
	}
	loss = make([]float64, len(rep.Est))
	for i, e := range rep.Est {
		loss[i] = e.Loss
	}
	if !sameFloats(loss, eo.Schemes[experiment.SchemeDophy].Loss) {
		mismatch("Dophy")
	}

	for i := range r.pending {
		r.pending[i] = nil
	}
	r.pending = r.pending[:0]
	return re, err
}
