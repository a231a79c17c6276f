package routing

import (
	"math"
	"testing"

	"dophy/internal/mac"
	"dophy/internal/radio"
	"dophy/internal/rng"
	"dophy/internal/sim"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// chainTopo builds a 1-D chain 0-1-2-...-(n-1) with spacing 10 and range
// 10.5, so each node can only talk to immediate neighbours.
func chainTopo(n int) *topo.Topology {
	return topo.Chain(n, 10, 10.5)
}

func bootstrapped(t *testing.T, n int, loss float64, seed uint64) (*Protocol, *sim.Engine, *topo.Topology) {
	t.Helper()
	tp := chainTopo(n)
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, loss)
	rec := trace.NewRecorder(tp.LinkTable())
	p := New(DefaultConfig(), eng, tp, model, rng.New(seed), rec)
	p.Start()
	eng.Run(300)
	return p, eng, tp
}

func TestBootstrapChain(t *testing.T) {
	p, _, tp := bootstrapped(t, 5, 0, 1)
	if got := p.Routed(); got != tp.N()-1 {
		t.Fatalf("routed %d of %d nodes", got, tp.N()-1)
	}
	// On a lossless chain, parents must follow the gradient i -> i-1.
	for i := topo.NodeID(1); i < topo.NodeID(tp.N()); i++ {
		pa, ok := p.Parent(i)
		if !ok || pa != i-1 {
			t.Fatalf("node %d parent = %d (ok=%v), want %d", i, pa, ok, i-1)
		}
	}
}

func TestSinkHasNoParentAndZeroETX(t *testing.T) {
	p, _, _ := bootstrapped(t, 4, 0, 2)
	if _, ok := p.Parent(topo.Sink); ok {
		t.Fatal("sink acquired a parent")
	}
	if p.PathETX(topo.Sink) != 0 {
		t.Fatalf("sink path ETX = %v", p.PathETX(topo.Sink))
	}
}

func TestPathETXMonotoneTowardSink(t *testing.T) {
	p, _, tp := bootstrapped(t, 6, 0.1, 3)
	for i := topo.NodeID(1); i < topo.NodeID(tp.N()); i++ {
		pa, ok := p.Parent(i)
		if !ok {
			t.Fatalf("node %d unrouted", i)
		}
		if p.PathETX(i) <= p.PathETX(pa) {
			t.Fatalf("metric not decreasing: node %d etx %v, parent %d etx %v",
				i, p.PathETX(i), pa, p.PathETX(pa))
		}
	}
}

func TestDataFeedbackImprovesEstimates(t *testing.T) {
	p, _, _ := bootstrapped(t, 3, 0, 4)
	ns := p.nodes[1]
	before := p.neighbor(ns, 0).linkETX
	// Report consistently expensive exchanges toward node 0.
	for i := 0; i < 50; i++ {
		p.OnDataResult(1, 0, mac.Result{Attempts: 8, Delivered: true, FirstDelivered: 8, AckedAttempt: 8})
	}
	after := p.neighbor(ns, 0).linkETX
	if after <= before+1 {
		t.Fatalf("link ETX did not respond to data feedback: %v -> %v", before, after)
	}
}

func TestFailedDataGivesPenalty(t *testing.T) {
	p, _, _ := bootstrapped(t, 3, 0, 5)
	ns := p.nodes[2]
	for i := 0; i < 100; i++ {
		p.OnDataResult(2, 1, mac.Result{Attempts: 8, Delivered: false})
	}
	got := p.neighbor(ns, 1).linkETX
	if got < DefaultConfig().MaxETXSample-1 {
		t.Fatalf("penalty sample not applied: link ETX = %v", got)
	}
}

func TestParentSwitchOnDegradedLink(t *testing.T) {
	// Grid with diagonal links: node can switch between two parents.
	tp := topo.Grid(3, 10, 0, 15, rng.New(6))
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, 0)
	rec := trace.NewRecorder(tp.LinkTable())
	p := New(DefaultConfig(), eng, tp, model, rng.New(7), rec)
	p.Start()
	eng.Run(200)
	node := topo.NodeID(4) // center; neighbours include 0,1,3,...
	pa, ok := p.Parent(node)
	if !ok {
		t.Fatal("center unrouted")
	}
	// Degrade the current parent link heavily and keep reporting failures.
	for i := 0; i < 200; i++ {
		p.OnDataResult(node, pa, mac.Result{Attempts: 8, Delivered: false})
	}
	eng.Run(400)
	pa2, _ := p.Parent(node)
	if pa2 == pa {
		t.Fatalf("node %d never abandoned degraded parent %d", node, pa)
	}
	if rec.ParentChanges == 0 {
		t.Fatal("parent change not counted")
	}
}

func TestRandomizeParentForcesChurn(t *testing.T) {
	tp := topo.Grid(4, 10, 0, 15, rng.New(8))
	model := radio.NewStaticUniformLoss(tp, 0.05)

	run := func(prob float64) int64 {
		eng := sim.New()
		rec := trace.NewRecorder(tp.LinkTable())
		cfg := DefaultConfig()
		cfg.RandomizeParentProb = prob
		p := New(cfg, eng, tp, model, rng.New(9), rec)
		p.Start()
		eng.Run(150)
		rec.Cut()
		eng.Run(1000)
		return rec.Cut().ParentChanges
	}
	base := run(0)
	churned := run(0.5)
	if churned <= base+10 {
		t.Fatalf("randomize knob ineffective: base=%d churned=%d", base, churned)
	}
}

func TestBeaconsRecordedInTrace(t *testing.T) {
	tp := chainTopo(3)
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, 0)
	rec := trace.NewRecorder(tp.LinkTable())
	p := New(DefaultConfig(), eng, tp, model, rng.New(10), rec)
	p.Start()
	eng.Run(100)
	if p.BeaconsSent == 0 {
		t.Fatal("no beacons sent")
	}
	c := rec.Link(topo.Link{From: 0, To: 1})
	if c.Attempts == 0 || c.Successes != c.Attempts {
		t.Fatalf("lossless beacon link counts = %+v", c)
	}
}

func TestCurrentTreeShape(t *testing.T) {
	p, _, tp := bootstrapped(t, 4, 0, 11)
	tree := p.CurrentTree()
	if len(tree) != tp.N() {
		t.Fatalf("tree size %d", len(tree))
	}
	if tree[0] != NoParent {
		t.Fatalf("sink parent = %d", tree[0])
	}
	for i := 1; i < len(tree); i++ {
		if tree[i] == NoParent {
			t.Fatalf("node %d unrouted in tree snapshot", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	tp := chainTopo(2)
	model := radio.NewStaticUniformLoss(tp, 0)
	for name, cfg := range map[string]Config{
		"zero period":        {BeaconPeriod: 0, Window: 5},
		"NaN period":         {BeaconPeriod: sim.Time(math.NaN()), Window: 5},
		"zero window":        {BeaconPeriod: 1, Window: 0},
		"NaN randomize prob": {BeaconPeriod: 1, Window: 5, RandomizeParentProb: math.NaN()},
		"NaN beacon min": {BeaconPeriod: 1, Window: 5, AdaptiveBeacon: true,
			BeaconMin: sim.Time(math.NaN()), BeaconMax: 10},
		"NaN beacon max": {BeaconPeriod: 1, Window: 5, AdaptiveBeacon: true,
			BeaconMin: 1, BeaconMax: sim.Time(math.NaN())},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			New(cfg, sim.New(), tp, model, rng.New(1), nil)
		}()
	}
}

func TestStartTwicePanics(t *testing.T) {
	tp := chainTopo(2)
	model := radio.NewStaticUniformLoss(tp, 0)
	p := New(DefaultConfig(), sim.New(), tp, model, rng.New(1), nil)
	p.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	p.Start()
}

func TestUnroutedBeforeStart(t *testing.T) {
	tp := chainTopo(3)
	model := radio.NewStaticUniformLoss(tp, 0)
	p := New(DefaultConfig(), sim.New(), tp, model, rng.New(1), nil)
	if p.Routed() != 0 {
		t.Fatal("nodes routed before any beacons")
	}
	if !math.IsInf(p.PathETX(2), 1) {
		t.Fatalf("pre-bootstrap path ETX = %v", p.PathETX(2))
	}
}

func TestAdaptiveBeaconReducesOverhead(t *testing.T) {
	tp := topo.Grid(4, 10, 0, 15, rng.New(41))
	model := radio.NewStaticUniformLoss(tp, 0.05)
	run := func(adaptive bool) int64 {
		eng := sim.New()
		cfg := DefaultConfig()
		if adaptive {
			cfg.AdaptiveBeacon = true
			cfg.BeaconMin = cfg.BeaconPeriod
			cfg.BeaconMax = cfg.BeaconPeriod * 16
			cfg.TrickleReset = 1
		}
		p := New(cfg, eng, tp, model, rng.New(42), trace.NewRecorder(tp.LinkTable()))
		p.Start()
		eng.Run(2000)
		return p.BeaconsSent
	}
	fixed := run(false)
	adaptive := run(true)
	if adaptive >= fixed/2 {
		t.Fatalf("trickle did not reduce beacons: fixed=%d adaptive=%d", fixed, adaptive)
	}
}

func TestAdaptiveBeaconStillBootstraps(t *testing.T) {
	tp := chainTopo(6)
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, 0)
	cfg := DefaultConfig()
	cfg.AdaptiveBeacon = true
	cfg.BeaconMin = 2
	cfg.BeaconMax = 64
	cfg.TrickleReset = 0.5
	p := New(cfg, eng, tp, model, rng.New(43), trace.NewRecorder(tp.LinkTable()))
	p.Start()
	eng.Run(300)
	if got := p.Routed(); got != tp.N()-1 {
		t.Fatalf("routed %d of %d under adaptive beaconing", got, tp.N()-1)
	}
}

func TestAdaptiveBeaconResetOnChange(t *testing.T) {
	// After a long stable period, degrading the current parent should snap
	// the node back to fast beaconing (observable as a beacon-rate burst).
	tp := topo.Grid(3, 10, 0, 15, rng.New(44))
	eng := sim.New()
	model := radio.NewStaticUniformLoss(tp, 0)
	cfg := DefaultConfig()
	cfg.AdaptiveBeacon = true
	cfg.BeaconMin = 2
	cfg.BeaconMax = 128
	cfg.TrickleReset = 0.5
	rec := trace.NewRecorder(tp.LinkTable())
	p := New(cfg, eng, tp, model, rng.New(45), rec)
	p.Start()
	eng.Run(1500) // intervals saturate at BeaconMax
	before := p.BeaconsSent
	eng.Run(1756) // 256s at max interval: ~2 beacons/node expected
	quiet := p.BeaconsSent - before
	// Force a parent change at node 4.
	pa, _ := p.Parent(4)
	for i := 0; i < 300; i++ {
		p.OnDataResult(4, pa, mac.Result{Attempts: 8, Delivered: false})
	}
	before = p.BeaconsSent
	eng.Run(2012) // same window length after the reset
	busy := p.BeaconsSent - before
	if busy <= quiet {
		t.Fatalf("no beacon burst after parent change: quiet=%d busy=%d", quiet, busy)
	}
}

func TestAdaptiveBeaconValidation(t *testing.T) {
	tp := chainTopo(2)
	model := radio.NewStaticUniformLoss(tp, 0)
	cfg := DefaultConfig()
	cfg.AdaptiveBeacon = true
	cfg.BeaconMin = 0
	defer func() {
		if recover() == nil {
			t.Fatal("BeaconMin 0 accepted")
		}
	}()
	New(cfg, sim.New(), tp, model, rng.New(1), nil)
}
