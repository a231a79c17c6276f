package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dophy/internal/experiment"
)

// counts are the deterministic tallies of one iteration. Two iterations of
// the same workload and seed must produce equal counts.
type counts struct {
	Events        uint64 `json:"events"`
	Beacons       int64  `json:"beacons"`
	Shards        int    `json:"shards"`
	Windows       uint64 `json:"windows"`
	Exchanged     uint64 `json:"exchanged"`
	Attempts      int64  `json:"attempts"`      // radio transmissions, data + beacons, summed over epochs
	Successes     int64  `json:"successes"`     // of Attempts
	DataAttempts  int64  `json:"data_attempts"` // data transmissions only
	Generated     int64  `json:"generated"`
	Delivered     int64  `json:"delivered"`
	Dropped       int64  `json:"dropped"`
	ParentChanges int64  `json:"parent_changes"`
	Packets       int64  `json:"packets"` // delivered packets Dophy annotated
	Hops          int64  `json:"hops"`    // hop records Dophy encoded
	DecodeErrors  int64  `json:"decode_errors"`
	// Journey-derived tallies, filled only by traced runs of sessions that
	// expose SubscribeJourneys.
	Journeys        int64 `json:"journeys"`
	JourneyAttempts int64 `json:"journey_attempts"`
	AckLostAttempts int64 `json:"ack_lost_attempts"` // transmissions after the receiver already had the frame
	MincIters       int   `json:"minc_iters"`        // final epoch
	MincRows        int   `json:"minc_rows"`         // final epoch
	LsqRows         int   `json:"lsq_rows"`          // final epoch
}

// iteration is one set-up plus every epoch of a workload.
type iteration struct {
	seed     uint64 // scenario seed
	setupS   float64
	epochS   []float64
	estS     []float64 // EpochOutcome.EstSeconds: the MINC+LSQ stage
	wallS    float64   // setup plus epochs; traced replay excluded
	cpuS     float64   // process CPU over the same intervals
	simS     float64   // simulated seconds, warmup included
	mallocs  uint64
	allocB   uint64
	gcCycles uint32

	counts        counts
	digest        string
	mae           float64
	bitsPerPacket float64

	// Calibration factors (calibrate.go) of the set-up and of each epoch,
	// and the mean kernel time they came from.
	setupF float64
	epochF []float64
	refS   float64

	// Traced iterations only.
	topoBuildS float64
	replay     []replayEpoch
}

// Calibrated times.
func (it *iteration) setupC() float64 { return it.setupS * it.setupF }

func (it *iteration) epochC() []float64 { return scaleEach(it.epochS, it.epochF) }

func (it *iteration) estC() []float64 { return scaleEach(it.estS, it.epochF) }

func (it *iteration) wallC() float64 {
	w := it.setupC()
	for _, d := range it.epochC() {
		w += d
	}
	return w
}

func scaleEach(xs, fs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * fs[i]
	}
	return out
}

// cpuSeconds is the user plus system CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runIteration builds a session, runs every epoch and tallies the results.
// cal calibrates the set-up and every epoch. With tr set it also records
// spans and, where the session exposes its journeys, replays them through
// fresh estimator instances. A panic anywhere in the simulator is returned
// as an error.
func runIteration(w *workload, sc experiment.Scenario, tr *tracer, cal *calibrator) (it *iteration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	it = &iteration{seed: sc.Seed}
	var iterSpan int
	if tr != nil {
		iterSpan = tr.begin("iteration", 0)
		defer tr.end(iterSpan)
		it.topoBuildS = tr.topoBuild(iterSpan, w, sc)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	sp := tr.begin("setup", iterSpan)
	t0 := time.Now()
	s := w.open(sc)
	it.setupS = time.Since(t0).Seconds()
	tr.end(sp)
	it.cpuS = cpuSeconds() - cpu0
	defer closeSession(s)
	kernels := 0
	if cal != nil {
		kernels = len(cal.times)
	}
	it.setupF = cal.endSegment()

	var rp *replay
	if tr != nil {
		if ss, ok := s.(*experiment.Session); ok {
			rp = newReplay(ss.Topology(), sc)
			ss.SubscribeJourneys(rp.capture)
		}
	}

	c := &it.counts
	var final *experiment.EpochOutcome
	var maes []float64
	var bits int64
	for e := 0; e < sc.Epochs; e++ {
		sp := tr.begin("RunEpoch", iterSpan)
		cpu := cpuSeconds()
		t := time.Now()
		eo := s.RunEpoch()
		d := time.Since(t).Seconds()
		it.cpuS += cpuSeconds() - cpu
		tr.end(sp)
		f := cal.endSegment()
		it.epochS = append(it.epochS, d)
		it.epochF = append(it.epochF, f)
		it.estS = append(it.estS, eo.EstSeconds)

		truth := eo.Truth
		for _, lc := range truth.Counts {
			c.Attempts += lc.Attempts
			c.Successes += lc.Successes
			c.DataAttempts += lc.DataAttempts
		}
		c.Generated += truth.Generated
		c.Delivered += truth.Delivered
		c.Dropped += truth.Dropped
		c.ParentChanges += truth.ParentChanges
		dophy := eo.Schemes[experiment.SchemeDophy]
		c.Packets += dophy.Packets
		c.Hops += dophy.Hops
		c.DecodeErrors += dophy.DecodeErrors
		bits += dophy.AnnotationBits + dophy.HeaderBits
		if acc := experiment.Score(dophy, truth, sc.MinTruthAttempts); !math.IsNaN(acc.MAE) {
			maes = append(maes, acc.MAE)
		}
		if rp != nil {
			re, err := tr.replayEpoch(iterSpan, rp, eo)
			if err != nil {
				return it, fmt.Errorf("epoch %d: %w", eo.Epoch, err)
			}
			it.replay = append(it.replay, re.scaled(f))
		}
		final = eo
	}
	runtime.ReadMemStats(&ms1)
	it.mallocs = ms1.Mallocs - ms0.Mallocs
	it.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	it.gcCycles = ms1.NumGC - ms0.NumGC
	it.wallS = it.setupS
	for _, d := range it.epochS {
		it.wallS += d
	}
	if cal != nil {
		it.refS = mean(cal.times[kernels:])
	}
	it.simS = float64(sc.Warmup) + float64(sc.Epochs)*float64(sc.EpochLen)

	c.Events = s.Events()
	c.Beacons = s.BeaconsSent()
	c.Shards = 1
	if ss, ok := s.(*experiment.ShardedSession); ok {
		st := ss.Stats()
		c.Shards, c.Windows, c.Exchanged = st.Shards, st.Windows, st.Exchanged
	}
	if rp != nil {
		c.Journeys, c.JourneyAttempts, c.AckLostAttempts = rp.journeys, rp.hopAttempts, rp.ackLost
		last := it.replay[len(it.replay)-1]
		c.MincIters, c.MincRows, c.LsqRows = last.mincIters, last.mincRows, last.lsqRows
	}
	it.mae = mean(maes)
	if c.Packets > 0 {
		it.bitsPerPacket = float64(bits) / float64(c.Packets)
	}
	it.digest = digest(final)
	return it, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the middle value (mean of the middle two) of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf applies f to every iteration and returns the median.
func medianOf(its []*iteration, f func(*iteration) float64) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	return median(xs)
}

// allOf concatenates a per-iteration sample list over iterations.
func allOf(its []*iteration, f func(*iteration) []float64) []float64 {
	var xs []float64
	for _, it := range its {
		xs = append(xs, f(it)...)
	}
	return xs
}
