// Command perfbench is the repository benchmark. It runs one workload of
// the simulator for a fixed host time, checks every run's simulated output
// against a recorded digest, and prints each metric by name with its unit.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload ctrl-s0 --seed 7 --seconds 20 --trace 0
//	bash perfbench/run.sh record -key s0 -seeds 0-40 > perfbench/digests.json
//	bash perfbench/run.sh compare base.json new.json
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// again with spans, a CPU profile and (where the session exposes its
// journeys) an estimator replay, and reports the per-layer metrics. See
// README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	mix      int // scenario seeds per run; 0 means the workload's own
}

// metricValue is one metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything a run measured. It is printed as a table and saved
// as JSON for perfbench compare.
type report struct {
	Fingerprint  fingerprint `json:"fingerprint"`
	Result       result      `json:"result"`
	Iterations   int         `json:"iterations"`
	EpochSamples int         `json:"epoch_samples"`
	Digest       string      `json:"digest"`
	Recorded     bool        `json:"digest_recorded"`
	EstS         float64     `json:"est_s"` // median MINC+LSQ stage per epoch; 0 without that stage
	Counts       counts      `json:"counts"`
	// Uncalibrated medians, in host seconds.
	HostWallS  float64 `json:"host_wall_s"`
	HostSetupS float64 `json:"host_setup_s"`
	HostEpochS float64 `json:"host_epoch_s"`
	// Per iteration: host and CPU time of set-up plus epochs, and the
	// reference-kernel time that calibrates it.
	IterWallS []float64 `json:"iteration_wall_s"`
	IterCPUS  []float64 `json:"iteration_cpu_s"`
	IterRefS  []float64 `json:"iteration_ref_s"`
	Failures  []string  `json:"failures,omitempty"`
	Spans     []span    `json:"spans,omitempty"`
}

func main() {
	// At most two threads, so runs on larger machines stay comparable with
	// the two-core figures the workloads were sized on.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	args := os.Args[1:]
	cmd := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "":
		err = runMain(args, os.Stdout)
	case "record":
		err = recordMain(args, os.Stdout)
	case "compare":
		err = compareMain(args, os.Stdout)
	default:
		err = fmt.Errorf("unknown command %q (want record or compare, or flags for a run)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func runMain(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "ctrl-s0", "workload name")
	seed := fl.Uint64("seed", benchmarkSeeds().Default, "input seed (seeds.json also names a held-out seed)")
	secs := fl.Float64("seconds", 20, "host seconds to measure; at least one iteration runs")
	trace := fl.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	reportDir := fl.String("report-dir", ".bench_build/reports", "directory for the JSON report (empty: none)")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	o := options{workload: *workload, seed: *seed, seconds: *secs, trace: *trace == 1}
	rep, err := runBenchmark(o)
	if err != nil {
		return err
	}
	if *reportDir != "" {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, *trace)
		if err := writeJSON(filepath.Join(*reportDir, name), rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: report not saved:", err)
		}
	}
	printReport(stdout, rep)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// runBenchmark runs the workload's iterations for o.seconds, cycling
// through its scenario seeds and covering each at least once, and checks
// every one. Only set-up errors (an unknown workload) are returned; a
// failing iteration is counted in the result.
func runBenchmark(o options) (*report, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	mix := w.mix
	if o.mix > 0 {
		mix = o.mix
	}
	seeds := w.scenarioSeeds(o.seed, mix)
	wants := make([]string, len(seeds))
	recorded := true
	for k, s := range seeds {
		d, ok, err := recordedDigest(w.digestKey, s)
		if err != nil {
			return nil, err
		}
		wants[k] = d
		recorded = recorded && ok
	}
	rep := &report{Fingerprint: newFingerprint(o), Recorded: recorded}
	res := &rep.Result
	fail := func(msg string) {
		res.Failed++
		rep.Failures = append(rep.Failures, msg)
	}

	// firsts[k] is the first good iteration of scenario seed k; later
	// iterations of the same seed must repeat its digest and counts.
	firsts := make([]*iteration, len(seeds))
	check := func(op string, k int, it *iteration, err error, first *iteration) {
		res.Attempted++
		bad := []string{fmt.Sprint(err)}
		if err == nil {
			bad = checkIteration(it, first, wants[k])
		}
		if len(bad) > 0 {
			fail(op + ": " + strings.Join(bad, "; "))
		}
	}

	cal := newCalibrator()
	iterate := func(seed uint64, tr *tracer) (*iteration, error) {
		runtime.GC()
		return runIteration(w, w.scenario(seed), tr, cal)
	}

	var warm *iteration
	var tr *tracer
	var prof bytes.Buffer
	if o.trace {
		// The untraced iteration is the baseline for the tracing overhead.
		warm, err = iterate(seeds[0], nil)
		check("untraced iteration", 0, warm, err, nil)
		if err != nil {
			warm = nil
		}
		tr = newTracer()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var its []*iteration
	start := time.Now()
	for i := 0; ; i++ {
		k := i % len(seeds)
		it, err := iterate(seeds[k], tr)
		check(fmt.Sprintf("iteration %d (scenario seed %d)", i+1, seeds[k]), k, it, err, firsts[k])
		if err == nil {
			its = append(its, it)
			if firsts[k] == nil {
				firsts[k] = it
			}
		}
		if i+1 >= len(seeds) && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	if o.trace {
		pprof.StopCPUProfile()
		rep.Spans = tr.spans
	}
	ref := firsts[0]
	if ref == nil {
		res.Metrics = zeroMetrics(o.trace)
		return rep, nil
	}
	if warm != nil && warm.digest != ref.digest {
		fail(fmt.Sprintf("untraced digest %s differs from traced %s", warm.digest, ref.digest))
	}
	// Without a recorded digest the peer workload, which must simulate the
	// same thing on the other engine path, is the reference.
	if wants[0] == "" && w.peer != "" {
		pw, err := lookupWorkload(w.peer)
		if err != nil {
			return nil, err
		}
		peer, err := runIteration(pw, pw.scenario(seeds[0]), nil, nil)
		check("reference run of "+pw.name, 0, peer, err, nil)
		if err == nil && peer.digest != ref.digest {
			fail(fmt.Sprintf("%s digest %s differs from %s's %s", w.name, ref.digest, pw.name, peer.digest))
		}
	}

	rep.Iterations = len(its)
	rep.EpochSamples = len(allOf(its, func(it *iteration) []float64 { return it.epochS }))
	for _, it := range its {
		rep.IterWallS = append(rep.IterWallS, it.wallS)
		rep.IterCPUS = append(rep.IterCPUS, it.cpuS)
		rep.IterRefS = append(rep.IterRefS, it.refS)
	}
	rep.HostWallS = medianOf(its, func(it *iteration) float64 { return it.wallS })
	rep.HostSetupS = medianOf(its, func(it *iteration) float64 { return it.setupS })
	rep.HostEpochS = medianOf(its, func(it *iteration) float64 { return mean(it.epochS) })
	rep.Digest = ref.digest
	rep.Counts = ref.counts
	if w.shards == 0 {
		rep.EstS = median(allOf(its, (*iteration).estC))
	}

	var values map[string]float64
	defs := endToEnd
	if o.trace {
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		if warm == nil {
			warm = ref
		}
		values = perLayerValues(warm, ref, its, foldSamples(samples))
		defs = perLayer
	} else {
		values = endToEndValues(its, firsts)
	}
	res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: finite(values[d.name]), Unit: d.unit}
	}
	res.Correct = res.Failed == 0
	return rep, nil
}

func zeroMetrics(trace bool) map[string]metricValue {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	m := map[string]metricValue{}
	for _, d := range defs {
		m[d.name] = metricValue{Unit: d.unit}
	}
	return m
}

// printReport writes the human-readable part of a run's output.
func printReport(w io.Writer, rep *report) {
	f := rep.Fingerprint
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%t iterations=%d\n",
		f.Workload, f.Seed, f.Seconds, f.Trace, rep.Iterations)
	if fp, err := json.Marshal(f); err == nil {
		fmt.Fprintf(w, "fingerprint %s\n", fp)
	}
	fmt.Fprintf(w, "digest %s (recorded for this seed: %t)\n", rep.Digest, rep.Recorded)
	defs := endToEnd
	if f.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := rep.Result.Metrics[d.name]
		note := ""
		switch d.name {
		case "setup_s":
			note = fmt.Sprintf("median of %d iterations, calibrated; host %.4g s", rep.Iterations, rep.HostSetupS)
		case "wall_s":
			note = fmt.Sprintf("median of %d iterations, calibrated; host %.4g s", rep.Iterations, rep.HostWallS)
		case "epoch_s":
			note = fmt.Sprintf("median over %d iterations of the mean of %d epochs, calibrated; host %.4g s",
				rep.Iterations, rep.EpochSamples, rep.HostEpochS)
		case "events_per_s":
			note = fmt.Sprintf("pooled over %d iterations, calibrated", rep.Iterations)
		case "sim_speedup":
			note = fmt.Sprintf("median of %d iterations, calibrated", rep.Iterations)
		case "mallocs", "alloc_mb":
			note = fmt.Sprintf("median of %d iterations", rep.Iterations)
		}
		fmt.Fprintf(w, "%-36s %16.6g %-14s %s\n", d.name, m.Value, m.Unit, note)
	}
	if !f.Trace {
		if rep.EstS > 0 {
			fmt.Fprintf(w, "%-36s %16.6g %-14s %s\n", "est_s", rep.EstS, "s", fmt.Sprintf("median MINC+LSQ stage of %d epochs, calibrated", rep.EpochSamples))
		} else {
			fmt.Fprintf(w, "%-36s %16s %-14s %s\n", "est_s", "n/a", "s", "no MINC/LSQ stage in this workload")
		}
	}
	r := rep.Result
	fmt.Fprintf(w, "%-36s %16.6g %-14s %d of %d operations failed the output check\n",
		"failed_ops", ratio(float64(r.Failed), float64(r.Attempted)), "ratio", r.Failed, r.Attempted)
	for _, msg := range rep.Failures {
		fmt.Fprintln(w, "FAILED", msg)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// recordMain runs one untraced iteration per seed and prints digests.json
// with the new digests merged in.
func recordMain(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench record", flag.ContinueOnError)
	key := fl.String("key", "s0", "digest key: s0 or g400-drift")
	seedList := fl.String("seeds", "7", "seeds: a list such as 1,7,11 or a range such as 0-40")
	if err := fl.Parse(args); err != nil {
		return err
	}
	seeds, err := parseSeeds(*seedList)
	if err != nil {
		return err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].digestKey == *key {
			w = &workloads[i]
			break
		}
	}
	if w == nil {
		return fmt.Errorf("no workload has digest key %q", *key)
	}
	all, err := recordedDigests()
	if err != nil {
		return err
	}
	if all[*key] == nil {
		all[*key] = map[string]string{}
	}
	for _, s := range seeds {
		it, err := runIteration(w, w.scenario(s), nil, nil)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if it.counts.DecodeErrors != 0 {
			return fmt.Errorf("seed %d: %d decode errors", s, it.counts.DecodeErrors)
		}
		all[*key][strconv.FormatUint(s, 10)] = it.digest
		fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", *key, s, it.digest)
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seeds %q: %w", s, err)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseUint(strings.TrimSpace(hi), 10, 64); err != nil || b < a {
				return nil, fmt.Errorf("seeds %q: bad range", s)
			}
		}
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
	}
	return out, nil
}

// compareMain prints the change of every metric between two saved
// reports. It refuses reports from different machines, toolchains or
// settings unless -allow-mismatch is given.
func compareMain(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	allow := fl.Bool("allow-mismatch", false, "compare even if the fingerprints differ")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() != 2 {
		return errors.New("usage: perfbench compare [-allow-mismatch] base.json new.json")
	}
	var base, cur report
	for i, r := range []*report{&base, &cur} {
		data, err := os.ReadFile(fl.Arg(i))
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, r); err != nil {
			return fmt.Errorf("%s: %w", fl.Arg(i), err)
		}
	}
	return compareReports(stdout, &base, &cur, *allow)
}

func compareReports(w io.Writer, base, cur *report, allow bool) error {
	if mm := base.Fingerprint.mismatches(cur.Fingerprint); len(mm) > 0 {
		if !allow {
			return fmt.Errorf("reports are not comparable (%s); pass -allow-mismatch to compare anyway", strings.Join(mm, "; "))
		}
		fmt.Fprintf(w, "warning: fingerprints differ: %s\n", strings.Join(mm, "; "))
	}
	fmt.Fprintf(w, "base %s (%s)  new %s (%s)\n", base.Fingerprint.Commit, base.Fingerprint.Source,
		cur.Fingerprint.Commit, cur.Fingerprint.Source)
	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defs[d.name] = d
	}
	names := make([]string, 0, len(base.Result.Metrics))
	for name := range base.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Result.Metrics[name]
		c, ok := cur.Result.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "%-36s %14.6g %14s\n", name, b.Value, "missing")
			continue
		}
		change := ratio(c.Value-b.Value, b.Value)
		verdict := ""
		if d, ok := defs[name]; ok && d.bound > 0 {
			worse := change > d.bound
			if d.better == "higher" {
				worse = -change > d.bound
			}
			if worse {
				verdict = fmt.Sprintf("worse than the %.0f%% bound", d.bound*100)
			}
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %+8.2f%% %s\n", name, b.Value, c.Value, change*100, verdict)
	}
	return nil
}
