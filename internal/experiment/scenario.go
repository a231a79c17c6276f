// Package experiment is the evaluation harness: it assembles complete
// simulated deployments from declarative scenarios, runs all tomography
// schemes against the same packet realisations, scores them against ground
// truth, and regenerates every table and figure in DESIGN.md's experiment
// index. cmd/dophy-bench and the repository's bench_test.go are thin
// wrappers over this package.
package experiment

import (
	"fmt"
	"math"
	"sort"

	"dophy/internal/collect"
	"dophy/internal/core"
	"dophy/internal/mac"
	"dophy/internal/radio"
	"dophy/internal/rng"
	"dophy/internal/routing"
	"dophy/internal/sim"
	"dophy/internal/stats"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// TopoKind selects a topology generator.
type TopoKind int

const (
	TopoGrid TopoKind = iota
	TopoUniform
	TopoCorridor
	TopoChain
)

// TopoSpec declares a topology.
type TopoSpec struct {
	Kind    TopoKind
	Side    int     // grid: side length
	N       int     // uniform/corridor/chain: node count
	Spacing float64 // grid/chain spacing
	Jitter  float64 // grid placement jitter
	Width   float64 // uniform/corridor field dimensions
	Height  float64
	Range   float64 // communication range
}

// Build instantiates the topology.
func (ts TopoSpec) Build(r *rng.Source) *topo.Topology {
	switch ts.Kind {
	case TopoGrid:
		return topo.Grid(ts.Side, ts.Spacing, ts.Jitter, ts.Range, r)
	case TopoUniform:
		return topo.Uniform(ts.N, ts.Width, ts.Height, ts.Range, r)
	case TopoCorridor:
		return topo.Corridor(ts.N, ts.Width, ts.Height, ts.Range, r)
	case TopoChain:
		return topo.Chain(ts.N, ts.Spacing, ts.Range)
	}
	panic(fmt.Sprintf("experiment: unknown topology kind %d", ts.Kind))
}

// GridSpec is the standard dense testbed layout used across experiments.
func GridSpec(side int) TopoSpec {
	return TopoSpec{Kind: TopoGrid, Side: side, Spacing: 10, Jitter: 1.5, Range: 14}
}

// RadioKind selects a link-quality model.
type RadioKind int

const (
	RadioStatic RadioKind = iota
	RadioUniformLoss
	RadioRandomWalk
	RadioGilbertElliott
)

// RadioSpec declares link-quality behaviour.
type RadioSpec struct {
	Kind        RadioKind
	UniformLoss float64  // RadioUniformLoss: identical loss on all links
	WalkStep    float64  // RadioRandomWalk: logit step std
	WalkEvery   sim.Time // RadioRandomWalk: step period
	MeanGood    sim.Time // Gilbert-Elliott dwell
	MeanBad     sim.Time
	BadFactor   float64
	// FailMTBF/FailMTTR > 0 overlay node crash/recover dynamics on any
	// base kind (experiment F7).
	FailMTBF sim.Time
	FailMTTR sim.Time
}

// Build instantiates the radio model.
func (rs RadioSpec) Build(t *topo.Topology, seed uint64) radio.Model {
	bp := radio.DefaultBase()
	var m radio.Model
	switch rs.Kind {
	case RadioStatic:
		m = radio.NewStatic(t, bp, seed)
	case RadioUniformLoss:
		if rs.UniformLoss < 0 || rs.UniformLoss > 1 {
			panic(fmt.Sprintf("experiment: UniformLoss %v outside [0, 1]", rs.UniformLoss))
		}
		m = radio.NewStaticUniformLoss(t, rs.UniformLoss)
	case RadioRandomWalk:
		every := rs.WalkEvery
		if every <= 0 {
			every = 5
		}
		m = radio.NewRandomWalk(t, bp, every, rs.WalkStep, seed)
	case RadioGilbertElliott:
		m = radio.NewGilbertElliott(t, bp, rs.MeanGood, rs.MeanBad, rs.BadFactor, seed)
	default:
		panic(fmt.Sprintf("experiment: unknown radio kind %d", rs.Kind))
	}
	if rs.FailMTBF > 0 && rs.FailMTTR > 0 {
		m = radio.NewNodeFailures(m, t.N(), rs.FailMTBF, rs.FailMTTR, seed^0xabcdef12345)
	}
	return m
}

// Scenario declares one complete simulation setup.
type Scenario struct {
	Name     string
	Seed     uint64
	Topo     TopoSpec
	Radio    RadioSpec
	Mac      mac.Config
	Routing  routing.Config
	Collect  collect.Config
	Dophy    core.Config
	Warmup   sim.Time // routing bootstrap before data starts
	EpochLen sim.Time
	Epochs   int
	// MinTruthAttempts: links need this many ground-truth attempts in an
	// epoch to participate in accuracy scoring.
	MinTruthAttempts int64
}

// DefaultScenario is the baseline configuration shared by experiments.
func DefaultScenario() Scenario {
	return Scenario{
		Name:             "default",
		Seed:             1,
		Topo:             GridSpec(7),
		Radio:            RadioSpec{Kind: RadioStatic},
		Mac:              mac.Config{MaxRetx: 7},
		Routing:          routing.DefaultConfig(),
		Collect:          collect.Config{GenPeriod: 5, GenJitter: 0.25, TxTime: 0.005, HopDelay: 0.01, TTL: 64},
		Dophy:            core.DefaultConfig(),
		Warmup:           80,
		EpochLen:         300,
		Epochs:           3,
		MinTruthAttempts: 20,
	}
}

// SchemeEpoch is one scheme's normalised per-epoch output. Per-link values
// are dense vectors indexed by Table; NaN in Loss marks links the scheme did
// not estimate.
type SchemeEpoch struct {
	Name string
	// Table indexes Loss/Samples/StdErr. Nil when the scheme reported
	// nothing this epoch.
	Table *topo.LinkTable
	// Loss holds per-attempt loss per table index (NaN = not estimated).
	Loss []float64
	// Samples holds per-link observation counts (annotation schemes only).
	Samples []int64
	// StdErr holds per-link standard errors where the scheme provides them.
	StdErr []float64
	// AnnotationBits / HeaderBits / ExtraBits decompose the epoch overhead
	// (ExtraBits covers model dissemination).
	AnnotationBits int64
	HeaderBits     int64
	ExtraBits      int64
	// TransmittedBits is the radiated annotation volume (prefix bits times
	// per-hop transmissions, plus headers).
	TransmittedBits int64
	Packets         int64
	Hops            int64
	DecodeErrors    int64
	// EstMode / DirtyRows describe how an incremental estimator solved the
	// epoch ("off", "full", "warm" or "copy" with the dirty-row count, see
	// lsq.Stats / minc.Stats). Empty for schemes without an incremental
	// path. Diagnostic only: never rendered into tables.
	EstMode   string
	DirtyRows int
}

// LossAt returns the scheme's estimate for one link.
func (s *SchemeEpoch) LossAt(l topo.Link) (float64, bool) {
	if s.Table == nil {
		return 0, false
	}
	i := s.Table.Index(l)
	if i < 0 || math.IsNaN(s.Loss[i]) {
		return 0, false
	}
	return s.Loss[i], true
}

// NumEstimated counts links the scheme estimated this epoch.
func (s *SchemeEpoch) NumEstimated() int {
	n := 0
	for _, v := range s.Loss {
		if !math.IsNaN(v) {
			n++
		}
	}
	return n
}

// BitsPerPacket is the mean in-packet cost.
func (s *SchemeEpoch) BitsPerPacket() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.AnnotationBits+s.HeaderBits) / float64(s.Packets)
}

// BitsPerHop is the mean per-hop annotation cost.
func (s *SchemeEpoch) BitsPerHop() float64 {
	if s.Hops == 0 {
		return 0
	}
	return float64(s.AnnotationBits) / float64(s.Hops)
}

// Accuracy scores one scheme against epoch ground truth, on the links the
// scheme reported that also carried enough traffic.
type Accuracy struct {
	MAE      float64
	RMSE     float64
	MaxErr   float64
	Links    int     // links scored
	Coverage float64 // fraction of truth-active links the scheme reported
	Errors   []float64
}

// Score computes Accuracy for a scheme epoch against the trace epoch.
func Score(se *SchemeEpoch, truth *trace.Epoch, minAttempts int64) Accuracy {
	active := truth.ActiveLinkCount(minAttempts)
	// Table order is ascending (From, To), so the float summations below
	// visit links deterministically without any sort.
	var est, tru []float64
	for i := topo.LinkIdx(0); se.Table != nil && i < se.Table.Count(); i++ {
		loss := se.Loss[i]
		if math.IsNaN(loss) {
			continue
		}
		c := truth.Link(se.Table.Link(i))
		if c.DataAttempts < minAttempts || c.Attempts == 0 {
			continue
		}
		lossTrue, _ := c.Loss(minAttempts)
		est = append(est, loss)
		tru = append(tru, lossTrue)
	}
	acc := Accuracy{Links: len(est)}
	if active > 0 {
		acc.Coverage = float64(len(est)) / float64(active)
	}
	if len(est) == 0 {
		acc.MAE = math.NaN()
		acc.RMSE = math.NaN()
		return acc
	}
	acc.MAE = stats.MAE(est, tru)
	acc.RMSE = stats.RMSE(est, tru)
	acc.MaxErr = stats.MaxAbsErr(est, tru)
	acc.Errors = make([]float64, len(est))
	for i := range est {
		acc.Errors[i] = math.Abs(est[i] - tru[i])
	}
	sort.Float64s(acc.Errors)
	return acc
}

// EpochOutcome bundles everything observed in one epoch.
type EpochOutcome struct {
	Epoch   int
	Truth   *trace.Epoch
	Schemes map[string]*SchemeEpoch
	// QueueDrops counts congestion losses this epoch (QueueCap scenarios).
	QueueDrops int64
	// PerPacket holds (hops, dophyBits) samples for overhead-vs-path-length
	// analysis.
	PerPacket []PacketSample
	// EstSeconds is the wall-clock time the estimation stage (MINC + LSQ)
	// spent on this epoch. Like T4's throughput row it measures the
	// implementation, so it never feeds simulation state and is excluded
	// from golden comparisons.
	EstSeconds float64
}

// PacketSample is one delivered packet's (path length, annotation bits).
type PacketSample struct {
	Hops      int
	DophyBits int
}

// RunResult is a full scenario run.
type RunResult struct {
	Scenario Scenario
	Topology *topo.Topology
	Epochs   []*EpochOutcome
	// Events is the simulator event count for the whole run (warmup
	// included) — the denominator for events/sec throughput reporting.
	Events uint64
	// EstSeconds is the total estimation-stage wall time across epochs
	// (see EpochOutcome.EstSeconds).
	EstSeconds float64
	// MeanPacketsPerEpoch is the mean delivered packets per epoch.
	MeanPacketsPerEpoch float64
	// ParentChangesPerNodePerEpoch measures routing dynamics.
	ParentChangesPerNodePerEpoch float64
	// BeaconsSent is the routing protocol's total control-plane cost.
	BeaconsSent int64
}

// Scheme names used across experiments.
const (
	SchemeDophy   = "dophy"
	SchemeDophyNA = "dophy-noagg" // ablation: aggregation disabled
	SchemeRaw     = "raw"
	SchemeCompact = "compact"
	SchemeHuffman = "huffman"
	SchemeMINC    = "minc"
	SchemeLSQ     = "lsq"
)

// Session is an assembled deployment with all schemes attached; epochs are
// stepped on demand. experiment.Run and the public dophy facade share it.
//
// Consumers and annotators attach only before the first epoch runs — an
// epoch they missed can never be replayed.
type Session struct {
	sc    Scenario
	tp    *topo.Topology
	eng   *sim.Engine
	rec   *trace.Recorder
	nw    *collect.Network
	proto *routing.Protocol
	sink  *sink
	epoch int
}

// NewSession builds the network, attaches every scheme, runs the routing
// warmup and starts data generation.
func NewSession(sc Scenario) *Session {
	root := rng.New(sc.Seed)
	tp := sc.Topo.Build(root.Split())
	model := sc.Radio.Build(tp, sc.Seed^0x9e3779b97f4a7c15)
	eng := sim.New()
	rec := trace.NewRecorder(tp.LinkTable())
	arq := mac.New(sc.Mac, model, root.Split(), rec)
	proto := routing.New(sc.Routing, eng, tp, model, root.Split(), rec)
	nw := collect.New(sc.Collect, eng, tp, arq, proto, root.Split(), rec)

	s := &Session{sc: sc, tp: tp, eng: eng, rec: rec, nw: nw, proto: proto, sink: newSink(tp, sc, true)}
	nw.Subscribe(s.sink.onJourney)

	proto.Start()
	eng.Run(sc.Warmup)
	rec.Cut() // discard warmup ground truth
	nw.Start()
	return s
}

// Topology exposes the built topology.
func (s *Session) Topology() *topo.Topology { return s.tp }

// SubscribeJourneys registers an extra consumer of every completed journey
// (e.g. the trace exporter). It panics after the first RunEpoch.
func (s *Session) SubscribeJourneys(fn collect.JourneyFunc) {
	s.mustBeFresh("SubscribeJourneys")
	s.nw.Subscribe(fn)
}

// AttachAnnotator registers a hop-by-hop annotator (the distributed
// encoding path). It panics after the first RunEpoch.
func (s *Session) AttachAnnotator(a collect.Annotator) {
	s.mustBeFresh("AttachAnnotator")
	s.nw.AttachAnnotator(a)
}

// mustBeFresh rejects a late attachment: the consumer would silently miss
// every epoch already run.
func (s *Session) mustBeFresh(op string) {
	if s.epoch > 0 {
		panic(fmt.Sprintf("experiment: %s after epoch %d has run; attach consumers before the first RunEpoch", op, s.epoch))
	}
}

// BeaconsSent exposes the routing protocol's control-plane transmissions.
func (s *Session) BeaconsSent() int64 { return s.proto.BeaconsSent }

// Events exposes the simulator's processed-event count so far.
func (s *Session) Events() uint64 { return s.eng.Processed() }

// cutEpoch advances the simulation one epoch and cuts the sink's harvest:
// the first stage of RunEpoch and of the epoch pipeline.
func (s *Session) cutEpoch() *epochCut {
	s.epoch++
	s.eng.Run(s.sc.Warmup + sim.Time(s.epoch)*s.sc.EpochLen)
	return s.sink.cut(s.epoch, s.rec.Cut(), s.nw.QueueDrops)
}

// RunEpoch advances the simulation one epoch and harvests every scheme.
func (s *Session) RunEpoch() *EpochOutcome {
	return s.sink.bank.estimate(s.cutEpoch())
}

// Run executes the scenario with every scheme attached, overlapping each
// epoch's estimation with the next epoch's simulation (see runEpochs). The
// result is identical to stepping NewSession(sc) with RunEpoch.
func Run(sc Scenario) *RunResult {
	s := NewSession(sc)
	return runEpochs(sc, s, s.sink.bank)
}

// MeanAccuracy averages a scheme's per-epoch accuracy across a run,
// skipping epochs where the scheme produced nothing.
func (r *RunResult) MeanAccuracy(scheme string) Accuracy {
	var maes, rmses, covs, maxes []float64
	links := 0
	for _, eo := range r.Epochs {
		se, ok := eo.Schemes[scheme]
		if !ok {
			continue
		}
		acc := Score(se, eo.Truth, r.Scenario.MinTruthAttempts)
		if math.IsNaN(acc.MAE) {
			continue
		}
		maes = append(maes, acc.MAE)
		rmses = append(rmses, acc.RMSE)
		covs = append(covs, acc.Coverage)
		maxes = append(maxes, acc.MaxErr)
		links += acc.Links
	}
	if len(maes) == 0 {
		return Accuracy{MAE: math.NaN(), RMSE: math.NaN()}
	}
	return Accuracy{
		MAE:      stats.Mean(maes),
		RMSE:     stats.Mean(rmses),
		MaxErr:   stats.Mean(maxes),
		Coverage: stats.Mean(covs),
		Links:    links,
	}
}

// MeanBitsPerPacket averages a scheme's in-packet cost across epochs.
func (r *RunResult) MeanBitsPerPacket(scheme string) float64 {
	var totalBits, totalPkts int64
	for _, eo := range r.Epochs {
		if se, ok := eo.Schemes[scheme]; ok {
			totalBits += se.AnnotationBits + se.HeaderBits
			totalPkts += se.Packets
		}
	}
	if totalPkts == 0 {
		return 0
	}
	return float64(totalBits) / float64(totalPkts)
}

// TotalBitsPerPacket includes dissemination (ExtraBits) amortised over
// packets — the figure optimisation 2 trades off.
func (r *RunResult) TotalBitsPerPacket(scheme string) float64 {
	var totalBits, totalPkts int64
	for _, eo := range r.Epochs {
		if se, ok := eo.Schemes[scheme]; ok {
			totalBits += se.AnnotationBits + se.HeaderBits + se.ExtraBits
			totalPkts += se.Packets
		}
	}
	if totalPkts == 0 {
		return 0
	}
	return float64(totalBits) / float64(totalPkts)
}

// DecodeErrorTotal sums decode errors across epochs for a scheme.
func (r *RunResult) DecodeErrorTotal(scheme string) int64 {
	var n int64
	for _, eo := range r.Epochs {
		if se, ok := eo.Schemes[scheme]; ok {
			n += se.DecodeErrors
		}
	}
	return n
}
