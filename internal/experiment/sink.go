package experiment

import (
	"sync/atomic"

	"dophy/internal/collect"
	"dophy/internal/core"
	"dophy/internal/tomo/epochobs"
	"dophy/internal/tomo/lsq"
	"dophy/internal/tomo/minc"
	"dophy/internal/tomo/pathrecord"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// dophyConfig derives the Dophy engine configuration a scenario runs with:
// the coder's attempt alphabet matches the MAC budget, and aggregation is
// switched off when the budget is too small for it to mean anything.
func dophyConfig(sc Scenario) core.Config {
	c := sc.Dophy
	c.MaxAttempts = sc.Mac.MaxRetx + 1
	if c.AggThreshold >= c.MaxAttempts {
		c.AggThreshold = 0 // aggregation meaningless for tiny budgets
	}
	return c
}

// pathRecordConfig configures a path-record baseline for the same attempt
// budget and sample floor as the scenario's Dophy engine.
func pathRecordConfig(sc Scenario, v pathrecord.Variant) pathrecord.Config {
	d := dophyConfig(sc)
	c := pathrecord.DefaultConfig(v)
	c.MaxAttempts = d.MaxAttempts
	c.MinSamples = d.MinSamples
	return c
}

// sink is the sink side of a run, shared by Session and ShardedSession:
// every tomography scheme fed from the completed-journey stream, and the
// epoch harvest that turns their state into an epochCut. It sees journeys
// in one sequential order on one goroutine — Session feeds it from its
// collect subscriber, ShardedSession from its barrier flush.
type sink struct {
	dophy *core.Dophy
	// The rest of the scheme set; all nil for a Dophy-only sink (the
	// large sharded tiers, see ShardSpec.FullSchemes).
	dophyNA *core.Dophy
	raw     *pathrecord.Recorder
	compact *pathrecord.Recorder
	huff    *pathrecord.Recorder
	obs     *epochobs.Collector
	bank    *estBank

	perPacket      []PacketSample
	lastQueueDrops int64
}

// newSink attaches Dophy and, when full, every baseline scheme to the
// topology. Construction order is fixed; no scheme draws randomness.
func newSink(tp *topo.Topology, sc Scenario, full bool) *sink {
	dcfg := dophyConfig(sc)
	k := &sink{dophy: core.New(tp, dcfg)}
	if full {
		lt := tp.LinkTable()
		naCfg := dcfg
		naCfg.AggThreshold = 0
		k.dophyNA = core.New(tp, naCfg)
		k.raw = pathrecord.New(tp, pathRecordConfig(sc, pathrecord.Raw))
		k.compact = pathrecord.New(tp, pathRecordConfig(sc, pathrecord.Compact))
		k.huff = pathrecord.New(tp, pathRecordConfig(sc, pathrecord.Huffman))
		k.obs = epochobs.New(lt)
		k.bank = newEstBank(lt, dcfg.MaxAttempts)
	}
	return k
}

// onJourney applies one completed journey to every attached scheme.
func (k *sink) onJourney(j *collect.PacketJourney) {
	bits := k.dophy.OnJourney(j)
	if k.bank != nil {
		k.dophyNA.OnJourney(j)
		k.raw.OnJourney(j)
		k.compact.OnJourney(j)
		k.huff.OnJourney(j)
		k.obs.OnJourney(j)
	}
	if j.Delivered {
		k.perPacket = append(k.perPacket, PacketSample{Hops: len(j.Hops), DophyBits: bits})
	}
}

// cut harvests everything the sink observed in epoch: the annotation
// schemes' epoch reports and the observation epoch the inference
// estimators consume, next to the epoch's ground truth. queueDrops is the
// run's cumulative congestion-loss count. The returned cut is immutable
// and ready to hand to the estimation stage (estBank.estimate), on this
// goroutine or another.
func (k *sink) cut(epoch int, truth *trace.Epoch, queueDrops int64) *epochCut {
	// Seven schemes land in the map every full epoch: size it once up front.
	eo := &EpochOutcome{Epoch: epoch, Truth: truth, Schemes: make(map[string]*SchemeEpoch, 8)}
	eo.Schemes[SchemeDophy] = fromDophy(SchemeDophy, k.dophy.EndEpoch())
	c := &epochCut{out: eo}
	if k.bank != nil {
		eo.Schemes[SchemeDophyNA] = fromDophy(SchemeDophyNA, k.dophyNA.EndEpoch())
		eo.Schemes[SchemeRaw] = fromPathRecord(SchemeRaw, k.raw.EndEpoch())
		eo.Schemes[SchemeCompact] = fromPathRecord(SchemeCompact, k.compact.EndEpoch())
		eo.Schemes[SchemeHuffman] = fromPathRecord(SchemeHuffman, k.huff.EndEpoch())
		c.obs = k.obs.EndEpoch()
	}
	eo.PerPacket = k.perPacket
	k.perPacket = nil
	eo.QueueDrops = queueDrops - k.lastQueueDrops
	k.lastQueueDrops = queueDrops
	return c
}

func fromDophy(name string, rep *core.EpochReport) *SchemeEpoch {
	se := &SchemeEpoch{
		Name:            name,
		Table:           rep.Table,
		Loss:            make([]float64, len(rep.Est)),
		Samples:         make([]int64, len(rep.Est)),
		StdErr:          make([]float64, len(rep.Est)),
		AnnotationBits:  rep.Overhead.AnnotationBits,
		HeaderBits:      rep.Overhead.HeaderBits,
		ExtraBits:       rep.Overhead.DisseminationBits,
		TransmittedBits: rep.Overhead.TransmittedBits,
		Packets:         rep.Overhead.Packets,
		Hops:            rep.Overhead.Hops,
		DecodeErrors:    rep.DecodeErrors,
	}
	for i, est := range rep.Est {
		se.Loss[i] = est.Loss // NaN marks not-estimated, as in the report
		se.Samples[i] = est.Samples
		se.StdErr[i] = est.StdErr
	}
	return se
}

func fromPathRecord(name string, rep *pathrecord.EpochReport) *SchemeEpoch {
	return &SchemeEpoch{
		Name:            name,
		Table:           rep.Table,
		Loss:            rep.Loss,
		Samples:         rep.Samples,
		AnnotationBits:  rep.Overhead.AnnotationBits,
		HeaderBits:      rep.Overhead.HeaderBits,
		TransmittedBits: rep.Overhead.TransmittedBits,
		Packets:         rep.Overhead.Packets,
		Hops:            rep.Overhead.Hops,
		DecodeErrors:    rep.DecodeErrors,
	}
}

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
// sink.cut and consumed exactly once by estBank.estimate. Sending a cut
// transfers ownership: the simulation side never touches one again, which
// is what makes the estimate stage's writes to out race-free.
type epochCut struct {
	// The outcome travels with the cut: once the cut is sent, the estimation
	// stage owns it and finishes it (the one sanctioned write through a cut).
	out *EpochOutcome   // built by sink.cut; the estimation stage finishes and returns it
	obs *epochobs.Epoch // the estimators' input (nil for a Dophy-only sink); next epoch's DiffFrom only reads it
}

// estBank is the estimation stage's state: the inference estimators whose
// scratch persists across epochs (for reuse, and in incremental mode for
// warm starts). Only the stage that owns the bank — the caller of a
// session's RunEpoch, or the epoch pipeline's estimation goroutine — may
// call estimate.
type estBank struct {
	lt      *topo.LinkTable
	mincEst *minc.Estimator // the pointer; the estimator's own scratch mutates only under estimate
	lsqEst  *lsq.Estimator  // the pointer; the estimator's own scratch mutates only under estimate
}

// newEstBank builds the MINC/LSQ estimator pair, enabling incremental
// re-estimation when the package toggle is on.
func newEstBank(lt *topo.LinkTable, maxAttempts int) *estBank {
	mcfg := minc.DefaultConfig()
	mcfg.MaxAttempts = maxAttempts
	lcfg := lsq.DefaultConfig()
	lcfg.MaxAttempts = maxAttempts
	if Incremental() {
		mcfg.DirtyThreshold = minc.DefaultDirtyThreshold
		lcfg.DirtyThreshold = lsq.DefaultDirtyThreshold
	}
	return &estBank{lt: lt, mincEst: minc.NewEstimator(lt, mcfg), lsqEst: lsq.NewEstimator(lt, lcfg)}
}

// estimate runs the inference estimators over one cut and completes its
// EpochOutcome. Called once per cut, in epoch order. A nil bank (a
// Dophy-only sink) returns the outcome as cut.
func (b *estBank) estimate(c *epochCut) *EpochOutcome {
	eo := c.out
	if b == nil {
		return eo
	}
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
