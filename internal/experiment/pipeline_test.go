package experiment

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dophy/internal/collect"
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

// TestRunPipelinedMatchesRun pins the pipeline's contract: overlapping
// simulation with estimation changes wall time only. Every epoch outcome —
// truth, schemes, estimates, report bits — must be identical to the
// sequential loop's, in both from-scratch and incremental estimator modes
// (incremental matters because the warm-started estimators carry state
// across epochs, so outcome k depends on the whole cut order).
func TestRunPipelinedMatchesRun(t *testing.T) {
	for _, inc := range []bool{false, true} {
		name := "fromscratch"
		if inc {
			name = "incremental"
		}
		t.Run(name, func(t *testing.T) {
			prev := SetIncremental(inc)
			defer SetIncremental(prev)
			sc := smallScenario(17)
			sc.Epochs = 4
			seq := Run(sc)
			pip := RunPipelined(sc)
			normalize(seq)
			normalize(pip)
			if !reflect.DeepEqual(seq, pip) {
				t.Fatalf("pipelined run diverged from sequential run:\nseq: %+v\npip: %+v", seq, pip)
			}
		})
	}
}

// TestPipelinedToggleRoutesRun checks that the package toggle makes plain
// Run take the pipelined path, and that the toggle round-trips.
func TestPipelinedToggleRoutesRun(t *testing.T) {
	prev := SetPipelined(true)
	defer SetPipelined(prev)
	if !Pipelined() {
		t.Fatal("SetPipelined(true) did not stick")
	}
	sc := smallScenario(19)
	via := Run(sc)
	SetPipelined(false)
	seq := Run(sc)
	normalize(via)
	normalize(seq)
	if !reflect.DeepEqual(seq, via) {
		t.Fatal("Run under the pipelined toggle diverged from sequential Run")
	}
	SetPipelined(true)
}

func TestRunPipelinedZeroEpochs(t *testing.T) {
	sc := smallScenario(23)
	sc.Epochs = 0
	res := RunPipelined(sc)
	if len(res.Epochs) != 0 {
		t.Fatalf("zero-epoch run produced %d epochs", len(res.Epochs))
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
	fmt.Fprintf(&b, "epoch=%d drops=%d dirty=%d perPacket=%v\ntruth=%+v\n",
		eo.Epoch, eo.QueueDrops, eo.DirtyLinks, eo.PerPacket, truth)
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
// epochs run, every earlier outcome must still match its snapshot. The
// pipelined run must reproduce the same snapshots, since there the next
// epoch's estimate can land before the caller reads an outcome.
func TestEpochOutcomesOutliveEstimatorScratch(t *testing.T) {
	for _, inc := range []bool{false, true} {
		name := "fromscratch"
		if inc {
			name = "incremental"
		}
		t.Run(name, func(t *testing.T) {
			prev := SetIncremental(inc)
			defer SetIncremental(prev)
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
			pip := RunPipelined(sc)
			for e, eo := range pip.Epochs {
				if got := snapshotOutcome(eo); got != snaps[e] {
					t.Errorf("pipelined epoch %d differs from the sequential outcome at return:\npipelined:  %s\nsequential: %s", eo.Epoch, got, snaps[e])
				}
			}
		})
	}
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
