package main

import (
	"io"
	"math"
	"path/filepath"
	"testing"

	"dophy/internal/experiment"
	"dophy/internal/topo"
)

// TestExportAnalyzeRoundTrip exports a run's journeys and replays them
// through the analyze path: the replay must decode every annotation and
// reproduce the session's own Dophy estimates and annotation bits exactly,
// so an exported trace is a faithful stand-in for the live run.
func TestExportAnalyzeRoundTrip(t *testing.T) {
	const grid, seed = 4, 3
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	eo, err := doExport(path, traceScenario(grid, seed, 200))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := doAnalyze(path, io.Discard, buildTopo(grid, seed))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecodeErrors != 0 {
		t.Fatalf("replay had %d decode errors", rep.DecodeErrors)
	}
	se := eo.Schemes[experiment.SchemeDophy]
	if rep.Overhead.AnnotationBits != se.AnnotationBits {
		t.Errorf("annotation bits: replay %d, session %d", rep.Overhead.AnnotationBits, se.AnnotationBits)
	}
	if rep.Table.Count() != se.Table.Count() {
		t.Fatalf("link tables differ: replay %d links, session %d", rep.Table.Count(), se.Table.Count())
	}
	estimated := 0
	for i := topo.LinkIdx(0); i < se.Table.Count(); i++ {
		l := se.Table.Link(i)
		got := rep.Est[rep.Table.Index(l)]
		want := se.Loss[i]
		if math.IsNaN(want) != math.IsNaN(got.Loss) || !math.IsNaN(want) && want != got.Loss ||
			got.StdErr != se.StdErr[i] || got.Samples != se.Samples[i] {
			t.Errorf("link %v: replay %+v, session loss %v stderr %v samples %d",
				l, got, want, se.StdErr[i], se.Samples[i])
		}
		if !math.IsNaN(want) {
			estimated++
		}
	}
	if estimated == 0 {
		t.Fatal("session estimated no links; the comparison is vacuous")
	}
}

func TestCheckFlags(t *testing.T) {
	if err := checkFlags(7, 600); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, c := range []struct {
		grid    int
		seconds float64
	}{
		{1, 600}, {0, 600}, {-3, 600},
		{7, math.Inf(1)}, {7, math.Inf(-1)}, {7, math.NaN()}, {7, 0}, {7, -5},
	} {
		if err := checkFlags(c.grid, c.seconds); err == nil {
			t.Errorf("-grid %d -seconds %v accepted", c.grid, c.seconds)
		}
	}
}
