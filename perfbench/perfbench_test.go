package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dophy/internal/experiment"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// short runs cover one scenario seed, so each takes one iteration.
var (
	shortMu   sync.Mutex
	shortRuns = map[string]*report{}
)

func shortRun(t *testing.T, workload string, trace bool) *report {
	t.Helper()
	key := workload + strconv.FormatBool(trace)
	shortMu.Lock()
	defer shortMu.Unlock()
	if rep, ok := shortRuns[key]; ok {
		return rep
	}
	rep, err := runBenchmark(options{workload: workload, seed: benchmarkSeeds().Default, trace: trace, mix: 1})
	if err != nil {
		t.Fatal(err)
	}
	shortRuns[key] = rep
	return rep
}

func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep := shortRun(t, w.name, trace)
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
				t.Errorf("%s trace=%t: result %+v, failures %v", w.name, trace, rep.Result, rep.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rep.Result.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(rep.Result.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Result.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.name)
				}
			}
			var out bytes.Buffer
			printReport(&out, rep)
			for _, d := range defs {
				if !strings.Contains(out.String(), d.name) {
					t.Errorf("%s trace=%t: printed report lacks %s", w.name, trace, d.name)
				}
			}
		}
	}
}

func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the g400 workload twice")
	}
	const w = "epochs-g400-drift"
	a := shortRun(t, w, true)
	b, err := runBenchmark(options{workload: w, seed: benchmarkSeeds().Default, trace: true, mix: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Errorf("traced counts differ between runs:\n%+v\n%+v", a.Counts, b.Counts)
	}
	if a.Counts.Journeys == 0 || a.Counts.MincRows == 0 {
		t.Errorf("traced g400 run replayed nothing: %+v", a.Counts)
	}
	for _, name := range []string{"sim.events", "radio.attempts", "mac.data_attempts", "routing.beacons",
		"routing.beacons_per_packet", "collect.generated", "minc.iters", "minc.rows", "lsq.rows"} {
		if x, y := a.Result.Metrics[name].Value, b.Result.Metrics[name].Value; x != y {
			t.Errorf("%s: %v then %v", name, x, y)
		}
	}
}

// TestS0MatchesScaleTier checks that the ctrl-s0 scenario restated here is
// the repository's S0 tier: same event and beacon counts at the same seed.
func TestS0MatchesScaleTier(t *testing.T) {
	if testing.Short() {
		t.Skip("runs S0")
	}
	rep := shortRun(t, "ctrl-s0", false)
	prev := experiment.SetShards(1)
	defer experiment.SetShards(prev)
	tab := experiment.S0(benchmarkSeeds().Default)
	rows := map[string]string{}
	for _, r := range tab.Rows {
		rows[r[0]] = r[1]
	}
	if got, want := strconv.FormatUint(rep.Counts.Events, 10), rows["events"]; got != want {
		t.Errorf("events %s, S0 table says %s", got, want)
	}
	if got, want := strconv.FormatInt(rep.Counts.Beacons, 10), rows["beacons"]; got != want {
		t.Errorf("beacons %s, S0 table says %s", got, want)
	}
}

func TestLayerFold(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"container/heap.down", "container/heap.Pop", "dophy/internal/sim.(*Engine).Run"}, "sim"},
		{[]string{"runtime.memhash", "runtime.mapaccess2", "dophy/internal/radio.(*Static).PRR"}, "radio"},
		{[]string{"dophy/internal/sim/shard.(*Engine).window"}, "shard"},
		{[]string{"dophy/internal/tomo/minc.(*Estimator).Estimate", "main.(*replay).run"}, "minc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "dophy/internal/routing.(*Protocol).x"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		// A module package the table does not know is reported, not
		// folded into its caller.
		{[]string{"dophy/internal/newlayer.F", "dophy/internal/sim.(*Engine).Run"}, "other"},
		{[]string{"slices.SortFunc[go.shape.*dophy/internal/collect.PacketJourney]", "dophy/internal/experiment.f"}, "experiment"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}

	f := foldSamples([]cpuSample{
		{frames: []string{"dophy/internal/sim.f"}, nanos: 30},
		{frames: []string{"dophy/internal/unmapped.g"}, nanos: 10},
		{frames: []string{"dophy/internal/core.h"}, nanos: 60},
		{frames: []string{"dophy/internal/core.h"}, nanos: 500, outside: true},
	})
	if f.total != 100 || f.outside != 500 {
		t.Errorf("fold total %d outside %d, want 100 and 500", f.total, f.outside)
	}
	if got := f.share("other"); got != 0.1 {
		t.Errorf("other share %v, want 0.1", got)
	}
	var sum float64
	for _, l := range layers {
		sum += f.share(l)
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("layer shares sum to %v", sum)
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin := func(d time.Duration) {
		x := 1.0
		for start := time.Now(); time.Since(start) < d; {
			for i := 0; i < 1000; i++ {
				x = x*1.0000001 + 1e-9
			}
		}
		sink = x
	}
	spin(300 * time.Millisecond)
	pprof.Do(context.Background(), pprof.Labels(outsideLabel, "1"), func(context.Context) { spin(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f := foldSamples(samples)
	if f.samples == 0 || f.outside == 0 {
		t.Fatalf("profile folded to %d workload samples and %d outside ns", f.samples, f.outside)
	}
	// The test binary's own package is "dophy/perfbench", which the
	// table does not map: it must surface as "other".
	if f.share("other") == 0 {
		t.Errorf("unlabelled test code not reported as other: %v", f.byLayer)
	}
}

var sink float64

func TestCompareRefusesMismatchedFingerprints(t *testing.T) {
	base := &report{Fingerprint: fingerprint{CPUModel: "a", NumCPU: 2, Workload: "ctrl-s0", Seed: 7}}
	cur := &report{Fingerprint: fingerprint{CPUModel: "b", NumCPU: 2, Workload: "ctrl-s0", Seed: 7, Commit: "other"}}
	var out bytes.Buffer
	if err := compareReports(&out, base, cur, false); err == nil || !strings.Contains(err.Error(), "cpu_model") {
		t.Errorf("mismatched machines compared: err=%v", err)
	}
	if err := compareReports(&out, base, cur, true); err != nil {
		t.Errorf("-allow-mismatch still refused: %v", err)
	}
	cur.Fingerprint.CPUModel = "a"
	if err := compareReports(&out, base, cur, false); err != nil {
		t.Errorf("reports differing only in commit refused: %v", err)
	}
}

func TestDigestsCoverDefaultAndHeldOutSeeds(t *testing.T) {
	seeds := benchmarkSeeds()
	if seeds.Default == seeds.HeldOut {
		t.Fatal("held-out seed equals the default seed")
	}
	for _, w := range workloads {
		def := w.scenarioSeeds(seeds.Default, w.mix)
		held := w.scenarioSeeds(seeds.HeldOut, w.mix)
		for _, s := range append(def, held...) {
			if _, ok, err := recordedDigest(w.digestKey, s); err != nil || !ok {
				t.Errorf("%s: no recorded digest for scenario seed %d (err %v)", w.name, s, err)
			}
		}
		for _, a := range def {
			for _, b := range held {
				if a == b {
					t.Errorf("%s: default and held-out runs share scenario seed %d", w.name, a)
				}
			}
		}
	}
}

// TestRefusesIncompleteCheckout runs the entry script in a directory that
// holds only BENCHMARK.json and the benchmark: it must fail without
// printing a result.
func TestRefusesIncompleteCheckout(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	copyFile := func(src, dst string) {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile("../BENCHMARK.json", filepath.Join(dir, "BENCHMARK.json"))
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			copyFile(e.Name(), filepath.Join(dir, "perfbench", e.Name()))
		}
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "ctrl-s0", "--seed", "7", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err = cmd.Run()
	if err == nil {
		t.Fatal("run.sh succeeded in an incomplete checkout")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("run.sh printed a result: %s", stdout.String())
	}
}
