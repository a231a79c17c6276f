package main

import "math"

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root restates these; TestBenchmarkJSONMatchesDefinitions keeps them equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening, as a share of the median
}

// endToEnd are the metrics an untraced run reports: what a user running
// the simulator waits for and pays, plus the simulated results it checks.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.24},
	{"epoch_s", "s", "lower", 0.24},
	{"events_per_s", "1/s", "higher", 0.24},
	{"sim_speedup", "s/s", "higher", 0.24},
	{"peak_rss_mb", "MiB", "lower", 0.24},
	{"mallocs", "count", "lower", 0.1},
	{"alloc_mb", "MiB", "lower", 0.15},
	{"dophy_mae", "loss", "lower", 0.15},
	{"dophy_bits_per_packet", "bit", "lower", 0.2},
}

// perLayer are the metrics a traced run reports, named layer.metric.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", 0},
	{"sim.cpu_share", "ratio", "lower", 0},
	{"shard.windows", "count", "lower", 0},
	{"shard.exchanged", "count", "lower", 0},
	{"shard.events_per_window", "events/window", "higher", 0},
	{"shard.cpu_per_wall", "s/s", "higher", 0},
	{"shard.cpu_share", "ratio", "lower", 0},
	{"radio.attempts", "count", "lower", 0},
	{"radio.success_ratio", "ratio", "higher", 0},
	{"radio.cpu_share", "ratio", "lower", 0},
	{"mac.data_attempts", "count", "lower", 0},
	{"mac.attempts_per_hop", "attempts/hop", "lower", 0},
	{"mac.ack_loss_ratio", "ratio", "lower", 0},
	{"mac.cpu_share", "ratio", "lower", 0},
	{"routing.beacons", "count", "lower", 0},
	{"routing.beacons_per_packet", "count/packet", "lower", 0},
	{"routing.parent_changes", "count", "lower", 0},
	{"routing.cpu_share", "ratio", "lower", 0},
	{"collect.generated", "count", "higher", 0},
	{"collect.delivery_ratio", "ratio", "higher", 0},
	{"collect.hops_per_packet", "hops/packet", "lower", 0},
	{"collect.cpu_share", "ratio", "lower", 0},
	{"core.onjourney_ns_per_packet", "ns/packet", "lower", 0},
	{"core.endepoch_s", "s", "lower", 0},
	{"core.decode_errors", "count", "lower", 0},
	{"core.cpu_share", "ratio", "lower", 0},
	{"coding.cpu_share", "ratio", "lower", 0},
	{"geomle.cpu_share", "ratio", "lower", 0},
	{"pathrecord.onjourney_ns_per_packet", "ns/packet", "lower", 0},
	{"pathrecord.endepoch_s", "s", "lower", 0},
	{"pathrecord.cpu_share", "ratio", "lower", 0},
	{"epochobs.onjourney_ns_per_packet", "ns/packet", "lower", 0},
	{"epochobs.endepoch_s", "s", "lower", 0},
	{"epochobs.cpu_share", "ratio", "lower", 0},
	{"minc.estimate_s", "s", "lower", 0},
	{"minc.iters", "count", "lower", 0},
	{"minc.rows", "count", "lower", 0},
	{"minc.cpu_share", "ratio", "lower", 0},
	{"lsq.estimate_s", "s", "lower", 0},
	{"lsq.rows", "count", "lower", 0},
	{"lsq.cpu_share", "ratio", "lower", 0},
	{"mat.cpu_share", "ratio", "lower", 0},
	{"topo.build_s", "s", "lower", 0},
	{"topo.cpu_share", "ratio", "lower", 0},
	{"trace.cpu_share", "ratio", "lower", 0},
	{"rng.cpu_share", "ratio", "lower", 0},
	{"experiment.cpu_share", "ratio", "lower", 0},
	{"experiment.est_stage_s", "s", "lower", 0},
	{"runtime.cpu_share", "ratio", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.mallocs_per_kevent", "mallocs/kevent", "lower", 0},
	{"bench.cpu_share", "ratio", "lower", 0},
	{"bench.trace_overhead_s", "s", "lower", 0},
	{"bench.replay_s", "s", "lower", 0},
	{"bench.ref_s", "s", "lower", 0},
	{"bench.profile_samples", "count", "higher", 0},
	{"other.cpu_share", "ratio", "lower", 0},
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues computes the untraced run's metrics from its iterations.
// Times are calibrated (calibrate.go). The simulated results average the
// first iteration of each scenario seed.
func endToEndValues(its, firsts []*iteration) map[string]float64 {
	var maes, bits []float64
	for _, it := range firsts {
		if it != nil {
			maes = append(maes, it.mae)
			bits = append(bits, it.bitsPerPacket)
		}
	}
	return map[string]float64{
		"setup_s":               medianOf(its, (*iteration).setupC),
		"wall_s":                medianOf(its, (*iteration).wallC),
		"epoch_s":               medianOf(its, func(it *iteration) float64 { return mean(it.epochC()) }),
		"events_per_s":          eventRate(its),
		"sim_speedup":           medianOf(its, func(it *iteration) float64 { return it.simS / it.wallC() }),
		"peak_rss_mb":           peakRSSMB(),
		"mallocs":               medianOf(its, func(it *iteration) float64 { return float64(it.mallocs) }),
		"alloc_mb":              medianOf(its, func(it *iteration) float64 { return float64(it.allocB) / (1 << 20) }),
		"dophy_mae":             mean(maes),
		"dophy_bits_per_packet": mean(bits),
	}
}

// eventRate is the run's events per calibrated second of simulation,
// pooled over all iterations. The MINC/LSQ stage inside RunEpoch executes
// no events, so its time is left out.
func eventRate(its []*iteration) float64 {
	var events, secs float64
	for _, it := range its {
		events += float64(it.counts.Events)
		secs += it.wallC()
		for _, est := range it.estC() {
			secs -= est
		}
	}
	return events / secs
}

// perLayerValues computes the traced run's metrics. warm is the untraced
// iteration run first and ref the first traced iteration of the same
// scenario seed, whose counts are reported; its are all traced
// iterations, whose CPU profile folded into f.
func perLayerValues(warm, ref *iteration, its []*iteration, f cpuFold) map[string]float64 {
	c := ref.counts
	var sameSeed []*iteration
	for _, it := range its {
		if it.seed == warm.seed {
			sameSeed = append(sameSeed, it)
		}
	}
	m := map[string]float64{
		"sim.events":                 float64(c.Events),
		"shard.windows":              float64(c.Windows),
		"shard.exchanged":            float64(c.Exchanged),
		"shard.events_per_window":    ratio(float64(c.Events), float64(c.Windows)),
		"shard.cpu_per_wall":         medianOf(its, func(it *iteration) float64 { return it.cpuS / it.wallS / float64(c.Shards) }),
		"radio.attempts":             float64(c.Attempts),
		"radio.success_ratio":        ratio(float64(c.Successes), float64(c.Attempts)),
		"mac.data_attempts":          float64(c.DataAttempts),
		"mac.attempts_per_hop":       ratio(float64(c.DataAttempts), float64(c.Hops)),
		"mac.ack_loss_ratio":         ratio(float64(c.AckLostAttempts), float64(c.JourneyAttempts)),
		"routing.beacons":            float64(c.Beacons),
		"routing.beacons_per_packet": ratio(float64(c.Beacons), float64(c.Generated)),
		"routing.parent_changes":     float64(c.ParentChanges),
		"collect.generated":          float64(c.Generated),
		"collect.delivery_ratio":     ratio(float64(c.Delivered), float64(c.Generated)),
		"collect.hops_per_packet":    ratio(float64(c.Hops), float64(c.Packets)),
		"core.decode_errors":         float64(c.DecodeErrors),
		"minc.iters":                 float64(c.MincIters),
		"minc.rows":                  float64(c.MincRows),
		"lsq.rows":                   float64(c.LsqRows),
		"topo.build_s":               medianOf(its, func(it *iteration) float64 { return it.topoBuildS * it.setupF }),
		"experiment.est_stage_s":     median(allOf(its, (*iteration).estC)),
		"runtime.gc_cycles":          float64(warm.gcCycles),
		"runtime.mallocs_per_kevent": ratio(float64(warm.mallocs), float64(warm.counts.Events)/1000),
		"bench.trace_overhead_s":     medianOf(sameSeed, (*iteration).wallC) - warm.wallC(),
		"bench.ref_s":                medianOf(its, func(it *iteration) float64 { return it.refS }),
		"bench.profile_samples":      float64(f.samples),
	}

	// Replay timings: medians over every replayed epoch. Sessions without
	// a journey stream (the sharded ones) replay nothing and report 0.
	var res []replayEpoch
	for _, it := range its {
		res = append(res, it.replay...)
	}
	perEpoch := func(f func(replayEpoch) float64) float64 {
		if len(res) == 0 {
			return 0
		}
		xs := make([]float64, len(res))
		for i, re := range res {
			xs[i] = f(re)
		}
		return median(xs)
	}
	nsPerPacket := func(s float64, re replayEpoch) float64 { return ratio(s*1e9, float64(re.packets)) }
	m["core.onjourney_ns_per_packet"] = perEpoch(func(re replayEpoch) float64 { return nsPerPacket(re.coreOnJourney, re) })
	m["core.endepoch_s"] = perEpoch(func(re replayEpoch) float64 { return re.coreEndEpoch })
	m["pathrecord.onjourney_ns_per_packet"] = perEpoch(func(re replayEpoch) float64 { return nsPerPacket(re.pathOnJourney, re) })
	m["pathrecord.endepoch_s"] = perEpoch(func(re replayEpoch) float64 { return re.pathEndEpoch })
	m["epochobs.onjourney_ns_per_packet"] = perEpoch(func(re replayEpoch) float64 { return nsPerPacket(re.obsOnJourney, re) })
	m["epochobs.endepoch_s"] = perEpoch(func(re replayEpoch) float64 { return re.obsEndEpoch })
	m["minc.estimate_s"] = perEpoch(func(re replayEpoch) float64 { return re.mincEstimate })
	m["lsq.estimate_s"] = perEpoch(func(re replayEpoch) float64 { return re.lsqEstimate })
	m["bench.replay_s"] = medianOf(its, func(it *iteration) float64 {
		var s float64
		for _, re := range it.replay {
			s += re.coreOnJourney + re.coreEndEpoch + re.pathOnJourney + re.pathEndEpoch +
				re.obsOnJourney + re.obsEndEpoch + re.mincEstimate + re.lsqEstimate
		}
		return s
	})

	for _, l := range layers {
		name := l + ".cpu_share"
		if l == "runtime.gc" {
			name = "runtime.gc_cpu_share"
		}
		m[name] = f.share(l)
	}
	return m
}

// finite replaces NaN and infinities, which JSON cannot carry, with 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
