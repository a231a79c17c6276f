package main

import (
	"fmt"
	"sort"

	"dophy/internal/experiment"
	"dophy/internal/topo"
)

// workload is one benchmark input: a scenario built from the seed, the
// engine path it runs on and why it is in the benchmark.
type workload struct {
	name string
	why  string
	// shards selects the engine: 0 runs experiment.NewSession (every scheme
	// attached); k >= 1 runs experiment.NewShardedSession at
	// DefaultShardSpec(k) (Dophy only).
	shards   int
	scenario func(seed uint64) experiment.Scenario
	// digestKey names the recorded-digest table. Workloads sharing a key
	// simulate the same thing and must produce the same digest.
	digestKey string
	// peer is the workload whose digest must equal this one's; it is run
	// once as a reference when the seed has no recorded digest.
	peer string
	// mix is how many scenario seeds one run cycles through (see
	// scenarioSeeds). Runs cover every one at least once, so a run's
	// figures describe the workload rather than one random topology.
	mix int
}

var workloads = []workload{
	{
		name:      "ctrl-s0",
		why:       "S0 at one shard: 2.5k-node Trickle grid, 74 beacons per data packet, so the control plane and event queue dominate",
		shards:    1,
		scenario:  s0Scenario,
		digestKey: "s0",
		peer:      "ctrl-s0-shards2",
		mix:       10,
	},
	{
		name:      "ctrl-s0-shards2",
		why:       "S0 at two shards: output identical to ctrl-s0, so any difference is the shard barrier engine and the coordinator merge",
		shards:    2,
		scenario:  s0Scenario,
		digestKey: "s0",
		peer:      "ctrl-s0",
		mix:       10,
	},
	{
		name:      "epochs-g400-drift",
		why:       "20x20 grid with drifting links and all seven schemes over four epochs: data plane, radio writes and MINC/LSQ estimation dominate",
		shards:    0,
		scenario:  g400Scenario,
		digestKey: "g400-drift",
		mix:       5,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// scenarioSeeds are the scenario seeds a run with this --seed covers:
// seed, seed+1, ..., seed+mix-1. The first is the scenario the run's
// deterministic counts are reported for. Runs at nearby seeds share most
// scenarios, which keeps their figures comparable; the held-out seed in
// seeds.json is far from the default so the two share none.
func (w *workload) scenarioSeeds(seed uint64, mix int) []uint64 {
	seeds := make([]uint64, mix)
	for k := range seeds {
		seeds[k] = seed + uint64(k)
	}
	return seeds
}

// s0Scenario is the repository's S0 scale tier (experiment.S0): a 50x50
// jittered grid with Trickle beaconing, a 180 s warmup and one 60 s epoch.
// experiment builds it from an unexported helper, so the fields are
// restated here; TestS0MatchesScaleTier keeps the two in step.
func s0Scenario(seed uint64) experiment.Scenario {
	const side = 50
	sc := experiment.DefaultScenario()
	sc.Name = "s0-scale-smoke"
	sc.Seed = seed
	sc.Topo = experiment.GridSpec(side)
	sc.Routing.AdaptiveBeacon = true
	sc.Routing.BeaconMin = 0.5
	sc.Routing.BeaconMax = 2
	sc.Routing.TrickleReset = 0.5
	sc.Collect.GenPeriod = 30
	sc.Collect.GenJitter = 0.25
	sc.Collect.TTL = 8 * side
	sc.Warmup = 180
	sc.EpochLen = 60
	sc.Epochs = 1
	return sc
}

// g400Scenario is what the public facade builds for
// dophy.Options{GridSide: 20, Dynamics: DynamicsDrift}: link qualities take
// a logit random-walk step of 0.3 every 5 s. Four 300 s epochs.
func g400Scenario(seed uint64) experiment.Scenario {
	sc := experiment.DefaultScenario()
	sc.Name = "g400-drift"
	sc.Seed = seed
	sc.Topo = experiment.GridSpec(20)
	sc.Radio = experiment.RadioSpec{Kind: experiment.RadioRandomWalk, WalkStep: 0.3, WalkEvery: 5}
	sc.Dophy.UpdateEvery = 1
	sc.Epochs = 4
	return sc
}

// session is the slice of experiment.Session and experiment.ShardedSession
// the benchmark drives.
type session interface {
	RunEpoch() *experiment.EpochOutcome
	Events() uint64
	BeaconsSent() int64
	Topology() *topo.Topology
}

func (w *workload) open(sc experiment.Scenario) session {
	if w.shards == 0 {
		return experiment.NewSession(sc)
	}
	return experiment.NewShardedSession(sc, experiment.DefaultShardSpec(w.shards))
}

// closeSession stops the shard workers of a sharded session.
func closeSession(s session) {
	if ss, ok := s.(*experiment.ShardedSession); ok {
		ss.Close()
	}
}
