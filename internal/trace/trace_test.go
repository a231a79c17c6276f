package trace

import (
	"math"
	"testing"

	"dophy/internal/topo"
)

// testTable builds a 4-node chain: links 0<->1, 1<->2, 2<->3.
func testTable(t *testing.T) *topo.LinkTable {
	t.Helper()
	return topo.Chain(4, 10, 10.5).LinkTable()
}

var l12 = topo.Link{From: 1, To: 2}
var l21 = topo.Link{From: 2, To: 1}

func TestAttemptAccumulates(t *testing.T) {
	r := NewRecorder(testTable(t))
	r.Attempt(l12, true)
	r.Attempt(l12, false)
	r.Attempt(l12, true)
	c := r.Link(l12)
	if c.Attempts != 3 || c.Successes != 2 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestDirectionsSeparate(t *testing.T) {
	r := NewRecorder(testTable(t))
	r.Attempt(l12, true)
	r.Attempt(l21, false)
	if r.Link(l12).Successes != 1 || r.Link(l21).Successes != 0 {
		t.Fatal("directions conflated")
	}
}

func TestUntouchedLinkZero(t *testing.T) {
	r := NewRecorder(testTable(t))
	if c := r.Link(l12); c.Attempts != 0 || c.Successes != 0 {
		t.Fatalf("untouched link = %+v", c)
	}
}

func TestNonTopologyLinkPanics(t *testing.T) {
	r := NewRecorder(testTable(t))
	defer func() {
		if recover() == nil {
			t.Fatal("recording a non-topology link did not panic")
		}
	}()
	r.Attempt(topo.Link{From: 0, To: 3}, true)
}

func TestLossComputation(t *testing.T) {
	c := LinkCounts{Attempts: 10, Successes: 7}
	loss, ok := c.Loss(5)
	if !ok || math.Abs(loss-0.3) > 1e-12 {
		t.Fatalf("loss = %v ok=%v", loss, ok)
	}
	if _, ok := c.Loss(11); ok {
		t.Fatal("loss reported ok below minAttempts")
	}
	if _, ok := (LinkCounts{}).Loss(0); ok {
		t.Fatal("zero attempts reported ok")
	}
}

func TestCutSnapshotsAndResets(t *testing.T) {
	r := NewRecorder(testTable(t))
	r.Attempt(l12, true)
	r.Generated, r.Delivered, r.Dropped, r.ParentChanges = 5, 4, 1, 2
	e := r.Cut()
	if e.Generated != 5 || e.Delivered != 4 || e.Dropped != 1 || e.ParentChanges != 2 {
		t.Fatalf("epoch = %+v", e)
	}
	if e.Link(l12).Attempts != 1 {
		t.Fatal("epoch missing link counts")
	}
	// Recorder must now be clean.
	if r.Generated != 0 || r.Link(l12).Attempts != 0 {
		t.Fatal("Cut did not reset the recorder")
	}
	// Epoch must be immune to further recording.
	r.Attempt(l12, true)
	if e.Link(l12).Attempts != 1 {
		t.Fatal("epoch snapshot aliases live counters")
	}
}

func TestActiveLinksDeterministicOrder(t *testing.T) {
	// Star-ish layout: 0 adjacent to 1,2,3; 1 adjacent to 2 as well.
	tp := topo.FromPoints([]topo.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 0, Y: 5}, {X: -5, Y: 0}}, 7.1)
	r := NewRecorder(tp.LinkTable())
	links := []topo.Link{{From: 3, To: 0}, {From: 1, To: 2}, {From: 1, To: 0}, {From: 2, To: 0}}
	for _, l := range links {
		r.Attempt(l, true)
		r.Attempt(l, true)
	}
	r.Attempt(topo.Link{From: 2, To: 1}, true) // only one attempt
	e := r.Cut()
	got := e.ActiveLinks(2)
	want := []topo.Link{{From: 1, To: 0}, {From: 1, To: 2}, {From: 2, To: 0}, {From: 3, To: 0}}
	if len(got) != len(want) {
		t.Fatalf("active links = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("active links = %v, want %v", got, want)
		}
	}
}

func TestDeliveryRatio(t *testing.T) {
	e := &Epoch{Generated: 10, Delivered: 9}
	if e.DeliveryRatio() != 0.9 {
		t.Fatalf("ratio = %v", e.DeliveryRatio())
	}
	empty := &Epoch{}
	if empty.DeliveryRatio() != 1 {
		t.Fatalf("empty epoch ratio = %v", empty.DeliveryRatio())
	}
}

func TestBeaconVsDataAttempts(t *testing.T) {
	r := NewRecorder(testTable(t))
	r.Attempt(l12, true)
	r.Beacon(l12, false)
	r.Beacon(l12, true)
	c := r.Link(l12)
	if c.Attempts != 3 || c.Successes != 2 || c.DataAttempts != 1 {
		t.Fatalf("counts = %+v", c)
	}
	e := r.Cut()
	// Beacon-only links are not data-active.
	r2 := NewRecorder(testTable(t))
	r2.Beacon(l21, true)
	r2.Beacon(l21, true)
	e2 := r2.Cut()
	if len(e2.ActiveLinks(1)) != 0 {
		t.Fatal("beacon-only link reported data-active")
	}
	if len(e.ActiveLinks(1)) != 1 {
		t.Fatal("data link not reported active")
	}
}

func TestCutMergedSumsCounts(t *testing.T) {
	lt := testTable(t)
	ra, rb := NewRecorder(lt), NewRecorder(lt)
	ra.Attempt(l12, true)
	ra.Beacon(l21, true)
	ra.Generated, ra.Delivered = 2, 1
	rb.Attempt(l21, false)
	rb.Attempt(l12, false)
	rb.Generated, rb.Dropped, rb.ParentChanges = 1, 1, 3
	e := CutMerged([]*Recorder{ra, rb})
	if got, want := e.Link(l12), (LinkCounts{Attempts: 2, Successes: 1, DataAttempts: 2}); got != want {
		t.Fatalf("merged %v = %+v, want %+v", l12, got, want)
	}
	if got, want := e.Link(l21), (LinkCounts{Attempts: 2, Successes: 1, DataAttempts: 1}); got != want {
		t.Fatalf("merged %v = %+v, want %+v", l21, got, want)
	}
	if e.Generated != 3 || e.Delivered != 1 || e.Dropped != 1 || e.ParentChanges != 3 {
		t.Fatalf("merged totals = %+v", e)
	}
	// Both recorders were reset by the cut.
	if e := CutMerged([]*Recorder{ra, rb}); e.Link(l12) != (LinkCounts{}) || e.Generated != 0 {
		t.Fatalf("second merged cut not empty: %+v", e)
	}
}

func TestAppendActiveLinksMatchesActiveLinks(t *testing.T) {
	lt := testTable(t)
	r := NewRecorder(lt)
	r.Attempt(l12, true)
	r.Attempt(l21, false)
	e := r.Cut()
	want := e.ActiveLinks(1)
	buf := make([]topo.Link, 0, 8)
	buf = append(buf, topo.Link{From: 3, To: 2}) // pre-existing content survives
	got := e.AppendActiveLinks(1, buf)
	if len(got) != 1+len(want) {
		t.Fatalf("appended %d links, want %d", len(got)-1, len(want))
	}
	for i, l := range want {
		if got[i+1] != l {
			t.Fatalf("AppendActiveLinks = %v, want prefix+%v", got, want)
		}
	}
}
