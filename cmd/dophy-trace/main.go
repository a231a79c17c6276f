// dophy-trace exports a simulation run's packet journeys as JSON lines, or
// analyses a previously exported trace: it replays the journeys through the
// Dophy sink engine and prints per-link estimates without re-simulating.
//
// Usage:
//
//	dophy-trace -export trace.jsonl -grid 7 -seconds 600   # simulate & dump
//	dophy-trace -export - | head                           # dump to stdout
//	dophy-trace -analyze trace.jsonl -grid 7               # replay & estimate
//
// The -grid/-seed options of -analyze must match the exporting run: the
// decoder needs the topology's neighbour tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"dophy/internal/collect"
	"dophy/internal/core"
	"dophy/internal/experiment"
	"dophy/internal/journal"
	"dophy/internal/rng"
	"dophy/internal/sim"
	"dophy/internal/topo"
)

func main() {
	var (
		export  = flag.String("export", "", "simulate and write journeys to this file ('-' = stdout)")
		analyze = flag.String("analyze", "", "replay journeys from this file through the Dophy sink")
		grid    = flag.Int("grid", 7, "grid side of the (shared) topology")
		seed    = flag.Uint64("seed", 1, "scenario / topology seed")
		seconds = flag.Float64("seconds", 600, "simulated seconds to export")
	)
	flag.Parse()

	if err := checkFlags(*grid, *seconds); err != nil {
		fatal(err)
	}
	switch {
	case *export != "" && *analyze != "":
		fatal("use either -export or -analyze, not both")
	case *export != "":
		if _, err := doExport(*export, traceScenario(*grid, *seed, *seconds)); err != nil {
			fatal(err)
		}
	case *analyze != "":
		if _, err := doAnalyze(*analyze, os.Stdout, buildTopo(*grid, *seed)); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// checkFlags rejects the -grid and -seconds values no run can use.
// flag.Float64 parses "inf" and "nan", and an infinite epoch never ends.
func checkFlags(grid int, seconds float64) error {
	if grid < 2 {
		return fmt.Errorf("-grid %d: need a side of at least 2", grid)
	}
	if !(seconds > 0) || math.IsInf(seconds, 1) {
		return fmt.Errorf("-seconds %v: need a positive, finite duration", seconds)
	}
	return nil
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "dophy-trace:", v)
	os.Exit(1)
}

// traceScenario is the one-epoch run an export simulates. Its topology
// depends only on grid and seed, so an analyzing run can rebuild it.
func traceScenario(grid int, seed uint64, seconds float64) experiment.Scenario {
	sc := experiment.DefaultScenario()
	sc.Seed = seed
	sc.Topo = experiment.GridSpec(grid)
	sc.EpochLen = sim.Time(seconds)
	sc.Epochs = 1
	return sc
}

// buildTopo reproduces the topology an exporting run used, so an analyzing
// run decodes against identical neighbour tables.
func buildTopo(grid int, seed uint64) *topo.Topology {
	return traceScenario(grid, seed, 0).Topo.Build(rng.New(seed).Split())
}

// doExport simulates sc's single epoch, writes every completed journey to
// path ('-' = stdout) as JSON lines, and returns the session's outcome.
func doExport(path string, sc experiment.Scenario) (*experiment.EpochOutcome, error) {
	var out io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		out = f
	}
	w := journal.NewWriter(out)
	sess := experiment.NewSession(sc)
	var writeErr error
	sess.SubscribeJourneys(func(j *collect.PacketJourney) {
		if writeErr == nil {
			writeErr = w.Write(j)
		}
	})
	eo := sess.RunEpoch()
	if writeErr != nil {
		return nil, writeErr
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "dophy-trace: exported %d journeys\n", w.Count())
	return eo, nil
}

// doAnalyze replays the journeys in path through a Dophy sink engine over
// tp, prints the per-link estimates to out and returns the report.
func doAnalyze(path string, out io.Writer, tp *topo.Topology) (*core.EpochReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	d := core.New(tp, core.DefaultConfig())
	r := journal.NewReader(f)
	var journeys, delivered int64
	for {
		j, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		journeys++
		if j.Delivered {
			delivered++
		}
		d.OnJourney(j)
	}
	rep := d.EndEpoch()
	fmt.Fprintf(out, "replayed %d journeys (%d delivered); decode errors: %d\n",
		journeys, delivered, rep.DecodeErrors)
	fmt.Fprintf(out, "annotation: %.2f bytes/packet\n\n", rep.Overhead.BytesPerPacket())
	links := rep.SortedLinks()
	fmt.Fprintf(out, "%-10s  %-9s  %-8s  %s\n", "link", "est-loss", "stderr", "samples")
	for _, l := range links {
		est, _ := rep.At(l)
		fmt.Fprintf(out, "%-10s  %-9.4f  %-8.4f  %d\n", l, est.Loss, est.StdErr, est.Samples)
	}
	lossOf := func(l topo.Link) float64 {
		est, _ := rep.At(l)
		return est.Loss
	}
	sort.Slice(links, func(i, j int) bool { return lossOf(links[i]) > lossOf(links[j]) })
	if len(links) > 0 {
		worst := links[0]
		fmt.Fprintf(out, "\nworst link: %s at %.3f loss\n", worst, lossOf(worst))
	}
	return rep, nil
}
