// dophy-bench regenerates every table and figure of the reproduced
// evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// recorded results).
//
// Usage:
//
//	dophy-bench                 # run all experiments, aligned text output
//	dophy-bench -exp T1,F3      # run a subset
//	dophy-bench -csv            # CSV output instead of aligned text
//	dophy-bench -json           # machine-readable benchmark report
//	dophy-bench -seed 42        # change the base seed
//	dophy-bench -workers 4      # cap the scenario-sweep worker pool
//	dophy-bench -list           # list experiment ids
//	dophy-bench -exp S0 -shards 4
//	                            # scale-tier experiment on the sharded engine
//	dophy-bench -incremental    # dirty-link incremental MINC/LSQ re-estimation
//	dophy-bench -compare BENCH_linux-amd64.json
//	                            # rerun and exit nonzero on a perf regression
//	                            # (>15% wall-clock, >10% allocs/op, >20%
//	                            # events/sec or >25% estimation-stage seconds
//	                            # per experiment; tune with -max-wall-regress /
//	                            # -max-allocs-regress / -max-eventsps-regress /
//	                            # -max-est-regress; allocs gate needs
//	                            # -parallel 1 baselines on both sides)
//
//dophy:concurrency-boundary -- experiment-level fan-out; each worker runs an independent scenario and results are keyed by experiment id
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dophy/internal/experiment"
)

// benchReport is the -json output: one record per experiment plus a summary,
// so successive runs can be diffed (BENCH_*.json) to track perf regressions.
type benchReport struct {
	Seed     uint64 `json:"seed"`
	Parallel int    `json:"parallel"`
	Workers  int    `json:"sweep_workers"`
	// Shards is the shard count scale-tier experiments ran with (-shards);
	// omitted (1) for unsharded runs and pre-shard report formats.
	Shards      int               `json:"shards,omitempty"`
	NumCPU      int               `json:"num_cpu"`
	GoVersion   string            `json:"go_version"`
	Experiments []benchExperiment `json:"experiments"`
	TotalWallS  float64           `json:"total_wall_seconds"`
	// TotalEstS is the estimation-stage wall time (MINC + LSQ inference)
	// summed over all experiments — the slice of TotalWallS the incremental
	// estimators attack. Omitted in pre-estimation report formats.
	TotalEstS   float64 `json:"total_estimation_seconds,omitempty"`
	TotalEvents uint64  `json:"total_sim_events"`
	AllocBytes  uint64  `json:"total_alloc_bytes"`
	Mallocs     uint64  `json:"mallocs"`
	// PeakRSSKB is the process's peak resident set size (VmHWM) after all
	// experiments finished; 0 where /proc is unavailable.
	PeakRSSKB uint64 `json:"peak_rss_kb,omitempty"`
}

type benchExperiment struct {
	ID    string  `json:"id"`
	Title string  `json:"title"`
	WallS float64 `json:"wall_seconds"`
	// EstS splits the estimation-stage time (MINC + LSQ inference) out of
	// WallS: wall-clock regressions in the estimators stay visible even in
	// experiments the simulation dominates. Omitted (0) for experiments
	// that never run the inference estimators and in older reports.
	EstS      float64 `json:"estimation_seconds,omitempty"`
	Runs      int     `json:"sim_runs"`
	SimEvents uint64  `json:"sim_events"`
	EventsPS  float64 `json:"sim_events_per_second"`
	Rows      int     `json:"rows"`
	// Mallocs is the experiment's own allocation count. Only attributable
	// when experiments run sequentially, so it is recorded at -parallel 1
	// and omitted otherwise (older reports lack it entirely).
	Mallocs uint64 `json:"mallocs,omitempty"`
	// PeakRSSKB is the process peak RSS sampled when this experiment
	// finished. The high-water mark is process-wide and monotone, so the
	// per-experiment numbers attribute memory growth only at -parallel 1.
	PeakRSSKB uint64 `json:"peak_rss_kb,omitempty"`
}

// readPeakRSSKB reads the process's peak resident set size (VmHWM, in KiB)
// from /proc/self/status. Returns 0 where the field is unavailable.
func readPeakRSSKB() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}

func main() {
	var (
		expFlag     = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		csvFlag     = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonFlag    = flag.Bool("json", false, "emit a machine-readable benchmark report (suppresses tables)")
		seedFlag    = flag.Uint64("seed", 7, "base seed for all experiments")
		listFlag    = flag.Bool("list", false, "list experiment ids and exit")
		parallel    = flag.Int("parallel", runtime.NumCPU(), "experiments to run concurrently (1 = sequential)")
		workers     = flag.Int("workers", 0, "scenario-sweep worker pool size (0 = NumCPU)")
		shards      = flag.Int("shards", 1, "shard count for scale-tier experiments (S*); other tiers ignore it")
		compare     = flag.String("compare", "", "previous -json report to diff against; exits nonzero on regression")
		maxWall     = flag.Float64("max-wall-regress", 0.15, "per-experiment wall-clock regression tolerance for -compare")
		maxAlloc    = flag.Float64("max-allocs-regress", 0.10, "per-experiment allocs-per-run regression tolerance for -compare")
		maxEPS      = flag.Float64("max-eventsps-regress", 0.20, "per-experiment events/sec regression tolerance for -compare")
		maxEst      = flag.Float64("max-est-regress", 0.25, "per-experiment estimation-stage seconds regression tolerance for -compare")
		maxRSS      = flag.Float64("max-rss-regress", 0.30, "whole-run peak-RSS regression tolerance for -compare")
		requireAll  = flag.Bool("require-all", false, "fail -compare when any baseline experiment was not rerun")
		incremental = flag.Bool("incremental", false, "incremental MINC/LSQ re-estimation seeded by dirty-link tracking")
	)
	flag.Parse()

	experiment.SetWorkers(*workers)
	experiment.SetShards(*shards)
	experiment.SetIncremental(*incremental)

	// Scale tiers (S*) are opt-in: a bare run covers All() — the tables and
	// figures the goldens and the seed-7 CSV pin down — while -exp may name
	// tiers from either registry.
	registry := experiment.All()
	scaleRegistry := experiment.Scale()
	if *listFlag {
		for _, r := range registry {
			fmt.Printf("%-4s %s\n", r.ID, r.Title)
		}
		for _, r := range scaleRegistry {
			fmt.Printf("%-4s %s (scale tier; opt-in via -exp, honours -shards)\n", r.ID, r.Title)
		}
		return
	}

	combined := append(append([]experiment.Runner{}, registry...), scaleRegistry...)
	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if !knownID(combined, id) {
				fmt.Fprintf(os.Stderr, "dophy-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			want[id] = true
		}
	}

	var selected []experiment.Runner
	for _, r := range combined {
		if len(want) == 0 {
			if knownID(scaleRegistry, r.ID) {
				continue // scale tiers run only when explicitly selected
			}
		} else if !want[r.ID] {
			continue
		}
		selected = append(selected, r)
	}

	var memBefore runtime.MemStats
	if *jsonFlag || *compare != "" {
		runtime.GC()
		runtime.ReadMemStats(&memBefore)
	}
	wallStart := time.Now()

	// Experiments are fully independent and deterministic (each run derives
	// all randomness from its own seed), so they parallelise trivially; each
	// experiment additionally sweeps its own scenario points through the
	// shared experiment.Workers() pool. Results are printed in registry
	// order regardless of completion order.
	expWorkers := *parallel
	if expWorkers < 1 {
		expWorkers = 1
	}
	type outcome struct {
		table     *experiment.Table
		elapsed   time.Duration
		mallocs   uint64
		peakRSSKB uint64
	}
	results := make([]outcome, len(selected))
	sem := make(chan struct{}, expWorkers)
	var wg sync.WaitGroup
	for i, r := range selected {
		wg.Add(1)
		go func(i int, r experiment.Runner) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Per-experiment allocation counts are only attributable when
			// experiments run one at a time.
			var before runtime.MemStats
			if expWorkers == 1 {
				runtime.ReadMemStats(&before)
			}
			start := time.Now()
			results[i] = outcome{table: r.Run(*seedFlag), elapsed: time.Since(start)}
			results[i].peakRSSKB = readPeakRSSKB()
			if expWorkers == 1 {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				results[i].mallocs = after.Mallocs - before.Mallocs
			}
		}(i, r)
	}
	wg.Wait()
	totalWall := time.Since(wallStart)

	if *jsonFlag || *compare != "" {
		repShards := experiment.Shards()
		if repShards == 1 {
			repShards = 0 // omitempty: unsharded runs match pre-shard reports
		}
		rep := benchReport{
			Seed:       *seedFlag,
			Parallel:   expWorkers,
			Workers:    experiment.Workers(),
			Shards:     repShards,
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			TotalWallS: totalWall.Seconds(),
		}
		for i, res := range results {
			eps := 0.0
			if s := res.elapsed.Seconds(); s > 0 {
				eps = float64(res.table.SimEvents) / s
			}
			rep.Experiments = append(rep.Experiments, benchExperiment{
				ID:        selected[i].ID,
				Title:     res.table.Title,
				WallS:     res.elapsed.Seconds(),
				EstS:      res.table.EstSeconds,
				Runs:      res.table.Runs,
				SimEvents: res.table.SimEvents,
				EventsPS:  eps,
				Rows:      len(res.table.Rows),
				Mallocs:   res.mallocs,
				PeakRSSKB: res.peakRSSKB,
			})
			rep.TotalEvents += res.table.SimEvents
			rep.TotalEstS += res.table.EstSeconds
		}
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		rep.AllocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
		rep.Mallocs = memAfter.Mallocs - memBefore.Mallocs
		rep.PeakRSSKB = readPeakRSSKB()
		if *jsonFlag {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				fmt.Fprintf(os.Stderr, "dophy-bench: %v\n", err)
				os.Exit(1)
			}
		}
		if *compare != "" {
			old, err := loadReport(*compare)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dophy-bench: -compare: %v\n", err)
				os.Exit(2)
			}
			if !compareReports(os.Stderr, old, &rep, *maxWall, *maxAlloc, *maxEPS, *maxEst, *maxRSS, *requireAll) {
				os.Exit(1)
			}
		}
		return
	}

	for i, res := range results {
		if *csvFlag {
			fmt.Printf("# %s: %s\n%s\n", res.table.ID, res.table.Title, res.table.CSV())
		} else {
			fmt.Println(res.table.Format())
			fmt.Printf("[%s completed in %.1fs]\n\n", selected[i].ID, res.elapsed.Seconds())
		}
	}
}

func loadReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// minCompareWallS filters out timing noise: experiments faster than this in
// the baseline are never failed on wall-clock (a 30ms run jittering to 40ms
// is not a regression worth gating on).
const minCompareWallS = 0.25

// minCompareEstS is the estimation-stage noise floor: the inference stage
// is a fraction of an experiment's wall time, so it gets its own (smaller)
// floor rather than inheriting minCompareWallS.
const minCompareEstS = 0.05

// compareReports diffs the fresh report against a baseline, experiment by
// experiment (matched on ID), and reports whether the run is within the
// given tolerances. Fields the baseline lacks — per-experiment mallocs from
// pre-compare report formats, or experiments that are new — are skipped
// rather than failed, so old BENCH_*.json files stay usable. Baseline
// experiments absent from the fresh run are always listed; with requireAll
// they fail the comparison, so a partial -exp rerun cannot masquerade as a
// full regression gate.
func compareReports(out io.Writer, old, cur *benchReport, maxWall, maxAlloc, maxEPS, maxEst, maxRSS float64, requireAll bool) bool {
	byID := map[string]*benchExperiment{}
	for i := range old.Experiments {
		byID[old.Experiments[i].ID] = &old.Experiments[i]
	}
	ok := true
	fmt.Fprintf(out, "dophy-bench: comparing against baseline (seed %d, %s, parallel %d)\n",
		old.Seed, old.GoVersion, old.Parallel)
	for i := range cur.Experiments {
		ne := &cur.Experiments[i]
		oe := byID[ne.ID]
		if oe == nil {
			fmt.Fprintf(out, "  %-4s new experiment, no baseline — skipped\n", ne.ID)
			continue
		}
		verdict := "ok"
		if oe.WallS >= minCompareWallS {
			if rel := ne.WallS/oe.WallS - 1; rel > maxWall {
				verdict = fmt.Sprintf("WALL REGRESSION (+%.1f%% > %.0f%%)", 100*rel, 100*maxWall)
				ok = false
			}
		}
		// Throughput gates on simulator events per second — the metric the
		// sharded engine exists to raise — under the same noise floor as
		// wall-clock. Both sides must have event metering (older formats and
		// zero-event experiments are skipped).
		if oe.WallS >= minCompareWallS && oe.EventsPS > 0 && ne.EventsPS > 0 {
			if rel := 1 - ne.EventsPS/oe.EventsPS; rel > maxEPS {
				verdict = fmt.Sprintf("EVENTS/SEC REGRESSION (-%.1f%% > %.0f%%)", 100*rel, 100*maxEPS)
				ok = false
			}
		}
		// The estimation stage gets its own gate with its own noise floor:
		// inference is milliseconds inside multi-second experiments, so an
		// estimator regression that matters (the incremental path falling
		// back to full re-solves, say) would vanish inside the wall-clock
		// tolerance. Skipped when either report lacks the field.
		if oe.EstS >= minCompareEstS && ne.EstS > 0 {
			if rel := ne.EstS/oe.EstS - 1; rel > maxEst {
				verdict = fmt.Sprintf("ESTIMATION REGRESSION (+%.1f%% > %.0f%%)", 100*rel, 100*maxEst)
				ok = false
			}
		}
		// Allocs are compared per simulation run so baselines taken with a
		// different -exp subset or run count still line up.
		if oe.Mallocs > 0 && ne.Mallocs > 0 && oe.Runs > 0 && ne.Runs > 0 {
			oa := float64(oe.Mallocs) / float64(oe.Runs)
			na := float64(ne.Mallocs) / float64(ne.Runs)
			if rel := na/oa - 1; rel > maxAlloc {
				verdict = fmt.Sprintf("ALLOC REGRESSION (+%.1f%% > %.0f%%)", 100*rel, 100*maxAlloc)
				ok = false
			}
		}
		wallDelta := 0.0
		if oe.WallS > 0 {
			wallDelta = 100 * (ne.WallS/oe.WallS - 1)
		}
		fmt.Fprintf(out, "  %-4s wall %6.2fs -> %6.2fs (%+6.1f%%)  %s\n",
			ne.ID, oe.WallS, ne.WallS, wallDelta, verdict)
	}
	reran := map[string]bool{}
	for i := range cur.Experiments {
		reran[cur.Experiments[i].ID] = true
	}
	var notRun []string
	for i := range old.Experiments {
		if !reran[old.Experiments[i].ID] {
			notRun = append(notRun, old.Experiments[i].ID)
		}
	}
	if len(notRun) > 0 {
		verdict := "comparison covers the rerun subset only"
		if requireAll {
			verdict = "FAIL (-require-all)"
			ok = false
		}
		fmt.Fprintf(out, "  baseline experiments not run: %s — %s\n",
			strings.Join(notRun, ", "), verdict)
	}
	if cur.Parallel != 1 || old.Parallel != 1 {
		fmt.Fprintf(out, "  note: per-experiment allocs only gate at -parallel 1 on both sides\n")
	}
	// Peak RSS gates the whole run: the high-water mark is process-wide, so
	// per-experiment samples are informational only. Skipped when either
	// report lacks the field (pre-RSS formats, or /proc unavailable).
	if old.PeakRSSKB > 0 && cur.PeakRSSKB > 0 {
		rel := float64(cur.PeakRSSKB)/float64(old.PeakRSSKB) - 1
		verdict := "ok"
		if rel > maxRSS {
			verdict = fmt.Sprintf("RSS REGRESSION (+%.1f%% > %.0f%%)", 100*rel, 100*maxRSS)
			ok = false
		}
		fmt.Fprintf(out, "  peak RSS %d KiB -> %d KiB (%+.1f%%)  %s\n",
			old.PeakRSSKB, cur.PeakRSSKB, 100*rel, verdict)
	}
	if ok {
		fmt.Fprintf(out, "dophy-bench: no regressions beyond tolerances (wall %.0f%%, allocs %.0f%%, events/sec %.0f%%, estimation %.0f%%)\n",
			100*maxWall, 100*maxAlloc, 100*maxEPS, 100*maxEst)
	} else {
		fmt.Fprintf(out, "dophy-bench: REGRESSION detected\n")
	}
	return ok
}

func knownID(rs []experiment.Runner, id string) bool {
	for _, r := range rs {
		if r.ID == id {
			return true
		}
	}
	return false
}
