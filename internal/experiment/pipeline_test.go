package experiment

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dophy/internal/collect"
	"dophy/internal/topo"
)

// normalize prepares a RunResult for reflect.DeepEqual: wall-clock fields
// are real elapsed time and differ run to run, and the NaN markers in
// scheme estimates (NaN != NaN) are replaced by a sentinel.
func normalize(r *RunResult) {
	r.EstSeconds = 0
	for _, eo := range r.Epochs {
		eo.EstSeconds = 0
		for _, se := range eo.Schemes {
			for _, v := range [][]float64{se.Loss, se.StdErr} {
				for i := range v {
					if math.IsNaN(v[i]) {
						v[i] = -424242
					}
				}
			}
		}
	}
}

// epochStepper is the public stepping surface both session types share.
type epochStepper interface {
	RunEpoch() *EpochOutcome
	Topology() *topo.Topology
	BeaconsSent() int64
	Events() uint64
}

// sequentialRun is the reference the epoch pipeline must reproduce: the
// session stepped with RunEpoch on the calling goroutine, the run totals
// aggregated by hand.
func sequentialRun(sc Scenario, s epochStepper) *RunResult {
	res := &RunResult{Scenario: sc, Topology: s.Topology()}
	var packets, changes int64
	for e := 0; e < sc.Epochs; e++ {
		eo := s.RunEpoch()
		res.Epochs = append(res.Epochs, eo)
		packets += eo.Truth.Delivered
		changes += eo.Truth.ParentChanges
	}
	if sc.Epochs > 0 {
		res.MeanPacketsPerEpoch = float64(packets) / float64(sc.Epochs)
		res.ParentChangesPerNodePerEpoch =
			float64(changes) / float64(sc.Epochs) / math.Max(1, float64(s.Topology().N()-1))
	}
	res.BeaconsSent = s.BeaconsSent()
	res.Events = s.Events()
	return res
}

// forEachEstMode runs fn in from-scratch and incremental estimator modes.
// Incremental matters because the warm-started estimators carry state
// across epochs, so outcome k depends on the whole cut order.
func forEachEstMode(t *testing.T, fn func(t *testing.T)) {
	for _, inc := range []bool{false, true} {
		name := "fromscratch"
		if inc {
			name = "incremental"
		}
		t.Run(name, func(t *testing.T) {
			prev := SetIncremental(inc)
			defer SetIncremental(prev)
			fn(t)
		})
	}
}

// TestRunMatchesSequentialEpochs pins the epoch pipeline's contract:
// overlapping simulation with estimation changes wall time only. Every
// epoch outcome — truth, schemes, estimates, report bits — and every run
// total must equal those of a session stepped with RunEpoch.
func TestRunMatchesSequentialEpochs(t *testing.T) {
	forEachEstMode(t, func(t *testing.T) {
		sc := smallScenario(17)
		sc.Epochs = 4
		want := sequentialRun(sc, NewSession(sc))
		got := Run(sc)
		normalize(want)
		normalize(got)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Run diverged from sequential RunEpoch:\nseq: %+v\nrun: %+v", want, got)
		}
	})
}

// TestRunShardedMatchesSequentialEpochs is the same contract for the
// sharded engine, with the full scheme set so MINC and LSQ run on the
// estimation goroutine, at one shard (no workers) and at two (the
// estimation goroutine overlaps the shard workers' windows).
func TestRunShardedMatchesSequentialEpochs(t *testing.T) {
	forEachEstMode(t, func(t *testing.T) {
		sc := smallScenario(19)
		sc.Epochs = 4
		for _, k := range []int{1, 2} {
			sp := DefaultShardSpec(k)
			sp.FullSchemes = true
			s := NewShardedSession(sc, sp)
			want := sequentialRun(sc, s)
			s.Close()
			got := RunSharded(sc, sp)
			normalize(want)
			normalize(got)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("shards=%d: RunSharded diverged from sequential RunEpoch:\nseq: %+v\nrun: %+v", k, want, got)
			}
		}
	})
}

func TestRunZeroEpochs(t *testing.T) {
	sc := smallScenario(23)
	sc.Epochs = 0
	if n := len(Run(sc).Epochs); n != 0 {
		t.Fatalf("zero-epoch Run produced %d epochs", n)
	}
	sp := DefaultShardSpec(2)
	sp.FullSchemes = true
	if n := len(RunSharded(sc, sp).Epochs); n != 0 {
		t.Fatalf("zero-epoch RunSharded produced %d epochs", n)
	}
}

// snapshotOutcome renders everything an EpochOutcome holds by value. %v
// prints NaN as "NaN", so equal snapshots mean equal outcomes with NaN
// matching NaN. Link-table pointers and wall-clock seconds are blanked:
// they differ between sessions without the outcome differing.
func snapshotOutcome(eo *EpochOutcome) string {
	var b strings.Builder
	truth := *eo.Truth
	truth.Table = nil
	fmt.Fprintf(&b, "epoch=%d drops=%d perPacket=%v\ntruth=%+v\n",
		eo.Epoch, eo.QueueDrops, eo.PerPacket, truth)
	names := make([]string, 0, len(eo.Schemes))
	for name := range eo.Schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		se := *eo.Schemes[name]
		se.Table = nil
		fmt.Fprintf(&b, "%s=%+v\n", name, se)
	}
	return b.String()
}

// TestEpochOutcomesOutliveEstimatorScratch pins the copy-out boundary in
// estBank.estimate: MINC and LSQ return views of estimator scratch that the
// next epoch rewrites, so an outcome must not change once RunEpoch has
// returned it. Each outcome is snapshotted on return; after the remaining
// epochs run, every earlier outcome must still match its snapshot. Run
// must reproduce the same snapshots, since there the next epoch's estimate
// can land before the caller reads an outcome.
func TestEpochOutcomesOutliveEstimatorScratch(t *testing.T) {
	forEachEstMode(t, func(t *testing.T) {
		sc := smallScenario(29)
		sc.Epochs = 4
		s := NewSession(sc)
		var outs []*EpochOutcome
		var snaps []string
		for e := 0; e < sc.Epochs; e++ {
			eo := s.RunEpoch()
			outs = append(outs, eo)
			snaps = append(snaps, snapshotOutcome(eo))
		}
		for e, eo := range outs {
			if got := snapshotOutcome(eo); got != snaps[e] {
				t.Errorf("epoch %d outcome changed after later epochs ran:\nat return: %s\nat end:    %s", eo.Epoch, snaps[e], got)
			}
		}
		for e, eo := range Run(sc).Epochs {
			if got := snapshotOutcome(eo); got != snaps[e] {
				t.Errorf("Run's epoch %d differs from the RunEpoch outcome at return:\nRun:      %s\nRunEpoch: %s", eo.Epoch, got, snaps[e])
			}
		}
	})
}

// TestSessionRejectsLateAttachment pins the attach-before-first-epoch rule:
// a consumer attached after RunEpoch would silently miss the epochs
// already run, so the session panics instead.
func TestSessionRejectsLateAttachment(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: expected panic", name)
			} else if msg := fmt.Sprint(r); !strings.Contains(msg, name+" after epoch 1") {
				t.Errorf("%s: panic %q does not name the call and the epoch", name, msg)
			}
		}()
		fn()
	}
	s := NewSession(smallScenario(31))
	s.SubscribeJourneys(func(*collect.PacketJourney) {})
	s.AttachAnnotator(nopAnnotator{})
	s.RunEpoch()
	expectPanic("SubscribeJourneys", func() { s.SubscribeJourneys(func(*collect.PacketJourney) {}) })
	expectPanic("AttachAnnotator", func() { s.AttachAnnotator(nopAnnotator{}) })
}

type nopAnnotator struct{}

func (nopAnnotator) OnGenerate(*collect.PacketJourney)         {}
func (nopAnnotator) OnHop(*collect.PacketJourney, collect.Hop) {}
func (nopAnnotator) OnDeliver(*collect.PacketJourney)          {}
func (nopAnnotator) OnDrop(*collect.PacketJourney)             {}
