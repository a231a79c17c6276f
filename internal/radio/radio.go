// Package radio models per-link packet reception ratios (PRR) and their
// evolution over time.
//
// The MAC layer asks the radio model for the *current* success probability
// of a directed link and then performs per-attempt Bernoulli trials against
// it. The model owns the ground truth: the experiment harness scores
// tomography estimates against what the radio actually did (empirical
// per-attempt success ratios recorded by the trace package) or, for links
// with little traffic, against the model probability itself.
//
// Three temporal behaviours cover the evaluation axes:
//
//   - Static: link quality fixed for the whole run (baseline-friendly).
//   - RandomWalk: PRR drifts as a bounded random walk (slow environment
//     change; drives ETX re-estimation and parent churn).
//   - GilbertElliott: two-state Markov bursts (good/bad), the standard model
//     for bursty low-power wireless losses.
//
// All per-link randomness derives deterministically from the model seed and
// the link endpoints, so a scenario replays identically regardless of query
// order differences between schemes.
package radio

import (
	"fmt"
	"math"

	"dophy/internal/rng"
	"dophy/internal/sim"
	"dophy/internal/topo"
)

// Model yields the instantaneous delivery probability of a directed link.
type Model interface {
	// PRR returns the probability in [0,1] that a single transmission on
	// link l at time now is received.
	PRR(l topo.Link, now sim.Time) float64
}

// prrFromDistance maps distance to a base PRR with the classic logistic
// falloff around the nominal communication range: near links are excellent,
// links at the range edge are in the transitional region.
func prrFromDistance(d, commRange float64) float64 {
	// Center the transition at 80% of range; width 12% of range.
	mid := 0.8 * commRange
	width := 0.12 * commRange
	p := 1 / (1 + math.Exp((d-mid)/width))
	return clamp(p, 0.01, 0.999)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// BaseParams shape the initial per-link PRR assignment.
type BaseParams struct {
	// ShadowStd is the standard deviation of per-link lognormal shadowing
	// applied to the distance-derived PRR (in logit space). 0 disables it.
	ShadowStd float64
	// MinPRR floors the initial assignment so that no link is born useless.
	MinPRR float64
}

// DefaultBase returns parameters giving a realistic mix of good and
// intermediate links.
func DefaultBase() BaseParams {
	return BaseParams{ShadowStd: 0.8, MinPRR: 0.05}
}

func logit(p float64) float64 { return math.Log(p / (1 - p)) }
func expit(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// linkSeed mixes the model seed with the link endpoints so every link gets
// its own deterministic stream independent of map iteration order.
func linkSeed(seed uint64, l topo.Link) uint64 {
	x := seed ^ (uint64(l.From)+1)*0x9e3779b97f4a7c15 ^ (uint64(l.To)+1)*0xc2b2ae3d27d4eb4f
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// basePRRs assigns every directed link an initial PRR from distance plus
// shadowing, indexed by t.LinkTable(). Both directions share the shadowing
// draw scaled by an asymmetry perturbation, reflecting measured WSN link
// asymmetry. Draws follow canonical link order, one pair per undirected
// link, so the assignment is a pure function of the topology and r.
func basePRRs(t *topo.Topology, bp BaseParams, r *rng.Source) []float64 {
	lt := t.LinkTable()
	out := make([]float64, lt.Len())
	for i := topo.LinkIdx(0); i < lt.Count(); i++ {
		l := lt.Link(i)
		if l.From > l.To {
			continue // handle each undirected pair once
		}
		d := t.Distance(l.From, l.To)
		base := prrFromDistance(d, t.Range)
		shadow := 0.0
		if bp.ShadowStd > 0 {
			shadow = r.Normal(0, bp.ShadowStd)
		}
		asym := r.Normal(0, bp.ShadowStd/4)
		out[i] = clamp(expit(logit(base)+shadow+asym), bp.MinPRR, 0.999)
		out[lt.Index(topo.Link{From: l.To, To: l.From})] = clamp(expit(logit(base)+shadow-asym), bp.MinPRR, 0.999)
	}
	return out
}

// Static is a Model whose link qualities never change.
type Static struct {
	lt  *topo.LinkTable
	prr []float64 // indexed by lt
}

// NewStatic builds a static model over the topology.
func NewStatic(t *topo.Topology, bp BaseParams, seed uint64) *Static {
	return &Static{lt: t.LinkTable(), prr: basePRRs(t, bp, rng.New(seed))}
}

// NewStaticUniformLoss builds a static model where every link has the same
// loss ratio — handy for analytic validation tests.
func NewStaticUniformLoss(t *topo.Topology, loss float64) *Static {
	lt := t.LinkTable()
	prr := make([]float64, lt.Len())
	for i := range prr {
		prr[i] = clamp(1-loss, 0, 1)
	}
	return &Static{lt: lt, prr: prr}
}

// PRR implements Model.
func (s *Static) PRR(l topo.Link, _ sim.Time) float64 {
	i := s.lt.Index(l)
	if i == topo.NoLink {
		return 0
	}
	return s.prr[i]
}

// SetPRR overrides one link's quality (used by tests and fault injection).
// It panics when l is not a link of the topology.
func (s *Static) SetPRR(l topo.Link, p float64) {
	i := s.lt.Index(l)
	if i == topo.NoLink {
		panic(fmt.Sprintf("radio: SetPRR on %v, which is not a link of the topology", l))
	}
	s.prr[i] = clamp(p, 0, 1)
}

// RandomWalk drifts each link's PRR in logit space with reflecting bounds.
// Queries are lazy: state advances by whole steps of Interval since the last
// query, so cost is proportional to elapsed virtual time, not query count.
type RandomWalk struct {
	Interval sim.Time // walk step period (seconds)
	StepStd  float64  // per-step logit-space std deviation
	lt       *topo.LinkTable
	links    []walkState // indexed by lt
}

type walkState struct {
	logitPRR float64
	lastStep int64
	r        rng.Source
}

// NewRandomWalk builds a drifting model. Larger StepStd means faster link
// dynamics and therefore more routing churn.
func NewRandomWalk(t *topo.Topology, bp BaseParams, interval sim.Time, stepStd float64, seed uint64) *RandomWalk {
	if interval <= 0 {
		panic("radio: random walk interval must be positive")
	}
	lt := t.LinkTable()
	base := basePRRs(t, bp, rng.New(seed))
	m := &RandomWalk{Interval: interval, StepStd: stepStd, lt: lt, links: make([]walkState, len(base))}
	for i, p := range base {
		m.links[i] = walkState{logitPRR: logit(p), r: *rng.New(linkSeed(seed, lt.Link(topo.LinkIdx(i))))}
	}
	return m
}

// PRR implements Model, advancing the walk lazily.
func (m *RandomWalk) PRR(l topo.Link, now sim.Time) float64 {
	i := m.lt.Index(l)
	if i == topo.NoLink {
		return 0
	}
	st := &m.links[i]
	step := int64(now / m.Interval)
	for st.lastStep < step {
		st.logitPRR += st.r.Normal(0, m.StepStd)
		// Reflect at logit(0.02) and logit(0.995) to keep links plausible.
		lo, hi := logit(0.02), logit(0.995)
		if st.logitPRR < lo {
			st.logitPRR = 2*lo - st.logitPRR
		}
		if st.logitPRR > hi {
			st.logitPRR = 2*hi - st.logitPRR
		}
		st.lastStep++
	}
	return expit(st.logitPRR)
}

// GilbertElliott gives each link a two-state Markov burst process: in the
// good state the link keeps its base PRR; in the bad state the PRR drops by
// BadFactor. Dwell times are exponential.
type GilbertElliott struct {
	MeanGood  sim.Time // mean dwell in good state
	MeanBad   sim.Time // mean dwell in bad state
	BadFactor float64  // multiplier applied to base PRR in bad state
	lt        *topo.LinkTable
	links     []geState // indexed by lt
}

type geState struct {
	base     float64
	bad      bool
	nextFlip sim.Time
	r        rng.Source
}

// NewGilbertElliott builds the burst model.
func NewGilbertElliott(t *topo.Topology, bp BaseParams, meanGood, meanBad sim.Time, badFactor float64, seed uint64) *GilbertElliott {
	if meanGood <= 0 || meanBad <= 0 {
		panic("radio: Gilbert-Elliott dwell times must be positive")
	}
	lt := t.LinkTable()
	base := basePRRs(t, bp, rng.New(seed))
	m := &GilbertElliott{MeanGood: meanGood, MeanBad: meanBad, BadFactor: badFactor, lt: lt, links: make([]geState, len(base))}
	for i, p := range base {
		st := &m.links[i]
		st.base, st.r = p, *rng.New(linkSeed(seed, lt.Link(topo.LinkIdx(i))))
		st.nextFlip = sim.Time(st.r.Exp(1 / float64(meanGood)))
	}
	return m
}

// PRR implements Model, advancing the Markov chain lazily.
func (m *GilbertElliott) PRR(l topo.Link, now sim.Time) float64 {
	i := m.lt.Index(l)
	if i == topo.NoLink {
		return 0
	}
	st := &m.links[i]
	for st.nextFlip <= now {
		st.bad = !st.bad
		mean := m.MeanGood
		if st.bad {
			mean = m.MeanBad
		}
		st.nextFlip += sim.Time(st.r.Exp(1 / float64(mean)))
	}
	if st.bad {
		return clamp(st.base*m.BadFactor, 0.01, 1)
	}
	return st.base
}
