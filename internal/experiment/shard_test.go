package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dophy/internal/collect"
	"dophy/internal/topo"
)

// renderRun serialises everything a sharded run produced — per-link ground
// truth, every scheme's full estimate vectors and bit accounting, per-packet
// samples and run-level counters — so byte-comparing two renderings proves
// the runs were observably identical.
func renderRun(res *RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d beacons=%d packets=%v changes=%v\n",
		res.Events, res.BeaconsSent, res.MeanPacketsPerEpoch, res.ParentChangesPerNodePerEpoch)
	for _, eo := range res.Epochs {
		fmt.Fprintf(&b, "epoch %d: gen=%d del=%d drop=%d pchanges=%d qdrops=%d\n",
			eo.Epoch, eo.Truth.Generated, eo.Truth.Delivered, eo.Truth.Dropped,
			eo.Truth.ParentChanges, eo.QueueDrops)
		for i, c := range eo.Truth.Counts {
			if c.Attempts != 0 || c.Successes != 0 || c.DataAttempts != 0 {
				l := eo.Truth.Table.Link(topo.LinkIdx(i))
				fmt.Fprintf(&b, "  truth %d->%d a=%d s=%d d=%d\n", l.From, l.To, c.Attempts, c.Successes, c.DataAttempts)
			}
		}
		names := make([]string, 0, len(eo.Schemes))
		for name := range eo.Schemes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			se := eo.Schemes[name]
			fmt.Fprintf(&b, "  scheme %s ann=%d hdr=%d extra=%d tx=%d pkts=%d hops=%d decerr=%d\n",
				name, se.AnnotationBits, se.HeaderBits, se.ExtraBits,
				se.TransmittedBits, se.Packets, se.Hops, se.DecodeErrors)
			for i := range se.Loss {
				var s int64
				if se.Samples != nil {
					s = se.Samples[i]
				}
				var e float64
				if se.StdErr != nil {
					e = se.StdErr[i]
				}
				fmt.Fprintf(&b, "   %d %v %d %v\n", i, se.Loss[i], s, e)
			}
		}
		for _, ps := range eo.PerPacket {
			fmt.Fprintf(&b, "  pkt hops=%d bits=%d\n", ps.Hops, ps.DophyBits)
		}
	}
	return b.String()
}

// shardTestScenario is a ~200-node grid with every shardable dynamic knob
// exercised (random-walk radio, forced parent churn, Trickle beaconing) so
// that any draw attributed to the wrong stream, any mis-ordered cross-shard
// message and any mis-merged counter shows up as a byte difference.
func shardTestScenario() Scenario {
	sc := DefaultScenario()
	sc.Name = "shard-determinism"
	sc.Seed = 977
	sc.Topo = GridSpec(14) // 196 nodes
	sc.Radio = RadioSpec{Kind: RadioRandomWalk, WalkEvery: 5, WalkStep: 0.08}
	sc.Routing.RandomizeParentProb = 0.05
	sc.Routing.AdaptiveBeacon = true
	sc.Routing.BeaconMin = 0.5
	sc.Routing.BeaconMax = 30
	sc.Routing.TrickleReset = 0.5
	sc.Warmup = 60
	sc.EpochLen = 120
	sc.Epochs = 2
	return sc
}

// TestShardedByteDeterminism is the tentpole's correctness gate: the full
// epoch reports of a sharded run must be byte-identical at 1, 2, 4 and 8
// shards. K=1 executes on a single engine with zero goroutines, so this
// pins every parallel execution to the sequential reference.
func TestShardedByteDeterminism(t *testing.T) {
	sc := shardTestScenario()
	var ref string
	for _, k := range []int{1, 2, 4, 8} {
		sp := DefaultShardSpec(k)
		sp.FullSchemes = true
		got := renderRun(RunSharded(sc, sp))
		if k == 1 {
			ref = got
			if len(ref) < 10000 {
				t.Fatalf("reference report suspiciously small (%d bytes) — workload too light to trust", len(ref))
			}
			continue
		}
		if got != ref {
			t.Errorf("shards=%d diverges from shards=1:\n%s", k, firstDiff(ref, got))
		}
	}
}

// TestShardedRejectsUnshardable locks in the validation: radio/mac modes
// whose state has no single owning shard must refuse to run sharded.
func TestShardedRejectsUnshardable(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("ack-over-reverse-link", func() {
		sc := DefaultScenario()
		sc.Mac.AckOverReverseLink = true
		NewShardedSession(sc, DefaultShardSpec(2))
	})
	expectPanic("node-failures", func() {
		sc := DefaultScenario()
		sc.Radio.FailMTBF = 500
		sc.Radio.FailMTTR = 50
		NewShardedSession(sc, DefaultShardSpec(2))
	})
	expectPanic("bounded-queues", func() {
		sc := DefaultScenario()
		sc.Collect.QueueCap = 4
		NewShardedSession(sc, DefaultShardSpec(2))
	})
	expectPanic("zero-beacon-latency", func() {
		NewShardedSession(DefaultScenario(), ShardSpec{Shards: 2})
	})
}

// TestScaleTierSmoke runs the S0 registry tier at two shards and checks the
// run actually converged and moved traffic — the same configuration CI's
// bench smoke exercises.
func TestScaleTierSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale tier smoke is seconds of work")
	}
	prev := SetShards(2)
	defer SetShards(prev)
	tab := S0(7)
	vals := map[string]string{}
	for _, row := range tab.Rows {
		vals[row[0]] = row[1]
	}
	if vals["nodes"] != "2500" {
		t.Fatalf("nodes = %s, want 2500", vals["nodes"])
	}
	if vals["shards"] != "2" {
		t.Fatalf("shards = %s, want 2", vals["shards"])
	}
	var routed, delivered, windows int
	fmt.Sscanf(vals["routed-nodes"], "%d", &routed)
	fmt.Sscanf(vals["delivered"], "%d", &delivered)
	fmt.Sscanf(vals["windows"], "%d", &windows)
	if routed < 2300 {
		t.Errorf("routed-nodes = %d, want >= 2300 of 2499 (routing failed to converge)", routed)
	}
	if delivered < 1000 {
		t.Errorf("delivered = %d, want >= 1000", delivered)
	}
	if windows < 1000 {
		t.Errorf("windows = %d, want >= 1000 (lookahead windows did not engage)", windows)
	}
	if tab.SimEvents == 0 || tab.Runs != 1 {
		t.Errorf("metering not recorded: events=%d runs=%d", tab.SimEvents, tab.Runs)
	}
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  ref: %s\n  got: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// carrierTestScenario is a small Trickle grid for the fabric carrier tests:
// cheap enough to repeat under the race detector, busy enough that beacons
// and data hops cross every shard boundary.
func carrierTestScenario() Scenario {
	sc := DefaultScenario()
	sc.Name = "carrier"
	sc.Seed = 31
	sc.Topo = GridSpec(8) // 64 nodes
	sc.Routing.AdaptiveBeacon = true
	sc.Routing.BeaconMin = 0.5
	sc.Routing.BeaconMax = 2
	sc.Routing.TrickleReset = 0.5
	sc.Warmup = 30
	sc.EpochLen = 60
	sc.Epochs = 2
	return sc
}

// TestShardedCarrierHandOff runs the carrier grid at four shards and checks
// it against the single-shard reference. Fabric carriers come from the
// sending shard's free list and return to the receiving shard's, so at K=4
// they migrate between pools through the barrier merge; a write to a
// carrier after its hand-off shows up here as a byte difference, and under
// -race as a data race.
func TestShardedCarrierHandOff(t *testing.T) {
	sc := carrierTestScenario()
	run := func(k int) (out string, dataCrossed int, st ShardStats) {
		s := NewShardedSession(sc, DefaultShardSpec(k))
		defer s.Close()
		// Each shard's subscriber writes only its own slot.
		crossed := make([]int, k)
		for i, nw := range s.nws {
			nw.Subscribe(func(j *collect.PacketJourney) {
				for _, h := range j.Hops {
					if h.Link.To != topo.Sink && s.owner[h.Link.From] != s.owner[h.Link.To] {
						crossed[i]++
					}
				}
			})
		}
		out = renderRun(runEpochs(sc, s, s.sink.bank))
		for _, c := range crossed {
			dataCrossed += c
		}
		return out, dataCrossed, s.Stats()
	}
	ref, _, _ := run(1)
	got, dataCrossed, st := run(4)
	if dataCrossed == 0 {
		t.Fatal("no data hop crossed a shard boundary")
	}
	if st.Exchanged <= uint64(dataCrossed) {
		t.Fatalf("%d cross-shard messages for %d cross-shard data hops: no beacon crossed", st.Exchanged, dataCrossed)
	}
	if got != ref {
		t.Errorf("shards=4 diverges from shards=1:\n%s", firstDiff(ref, got))
	}
}

// TestControlPlaneAllocs guards the allocation-free beacon path: on a warmed
// single-shard Trickle grid, an epoch of beaconing may allocate per epoch
// but never per received beacon. The data plane is kept quiet, since
// journeys allocate per packet by design.
func TestControlPlaneAllocs(t *testing.T) {
	sc := carrierTestScenario()
	sc.Topo = GridSpec(12) // 144 nodes
	sc.EpochLen = 120
	sc.Collect.GenPeriod = 1e6
	s := NewShardedSession(sc, DefaultShardSpec(1))
	defer s.Close()
	s.cutEpoch() // warm the carrier pool, the event queue and the sink's buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := s.cutEpoch()
	runtime.ReadMemStats(&after)
	// Successes minus data attempts undercounts received beacons when data
	// moves, which only tightens the bound.
	var received int64
	for _, lc := range c.out.Truth.Counts {
		received += lc.Successes - lc.DataAttempts
	}
	if received < 10000 {
		t.Fatalf("only %d beacons received: workload too light to measure", received)
	}
	mallocs := after.Mallocs - before.Mallocs
	if perBeacon := float64(mallocs) / float64(received); perBeacon >= 0.01 {
		t.Errorf("%d mallocs over %d received beacons = %.4f per beacon, want < 0.01",
			mallocs, received, perBeacon)
	}
}
