package dophy

import (
	"math"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	sim, err := NewSimulation(Options{GridSide: 5, Seed: 1, EpochSeconds: 200})
	if err != nil {
		t.Fatal(err)
	}
	info := sim.Topology()
	if info.Nodes != 25 || info.AvgHops <= 0 {
		t.Fatalf("topology = %+v", info)
	}
	rep := sim.RunEpoch()
	if rep.Epoch != 1 {
		t.Fatalf("epoch = %d", rep.Epoch)
	}
	if len(rep.Estimates) == 0 || len(rep.TrueLoss) == 0 {
		t.Fatal("no estimates or truth")
	}
	if rep.DecodeErrors != 0 {
		t.Fatalf("decode errors: %d", rep.DecodeErrors)
	}
	if math.IsNaN(rep.MAE) || rep.MAE > 0.1 {
		t.Fatalf("MAE = %v", rep.MAE)
	}
	if rep.BytesPerPacket <= 0 || rep.BytesPerPacket > 20 {
		t.Fatalf("bytes/packet = %v", rep.BytesPerPacket)
	}
	if rep.DeliveryRatio < 0.9 {
		t.Fatalf("delivery ratio = %v", rep.DeliveryRatio)
	}
	// Second epoch advances.
	rep2 := sim.RunEpoch()
	if rep2.Epoch != 2 {
		t.Fatalf("second epoch = %d", rep2.Epoch)
	}
}

func TestUniformLossRecovered(t *testing.T) {
	sim, err := NewSimulation(Options{GridSide: 4, Seed: 2, UniformLoss: 0.2, EpochSeconds: 400, GenPeriodSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := sim.RunEpoch()
	for l, est := range rep.Estimates {
		if est.Samples < 20 {
			continue
		}
		if math.Abs(est.Loss-0.2) > 0.08 {
			t.Errorf("link %v: loss %.3f (n=%d), want ~0.2", l, est.Loss, est.Samples)
		}
	}
}

func TestCompareBaselines(t *testing.T) {
	sim, err := NewSimulation(Options{GridSide: 5, Seed: 3, CompareBaselines: true, EpochSeconds: 250})
	if err != nil {
		t.Fatal(err)
	}
	rep := sim.RunEpoch()
	if len(rep.BaselineMAE) != 2 {
		t.Fatalf("baselines = %v", rep.BaselineMAE)
	}
	for name, mae := range rep.BaselineMAE {
		if math.IsNaN(mae) {
			t.Fatalf("%s produced NaN", name)
		}
		if mae < rep.MAE {
			t.Fatalf("%s (%.4f) beat dophy (%.4f) — paper claim violated", name, mae, rep.MAE)
		}
	}
}

func TestParentChurnIncreasesDynamics(t *testing.T) {
	calm, err := NewSimulation(Options{GridSide: 5, Seed: 4, EpochSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	churny, err := NewSimulation(Options{GridSide: 5, Seed: 4, ParentChurn: 0.5, EpochSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	c1 := calm.RunEpoch().ParentChangesPerNode
	c2 := churny.RunEpoch().ParentChangesPerNode
	if c2 <= c1 {
		t.Fatalf("churn option ineffective: %v vs %v", c1, c2)
	}
}

func TestDynamicsVariants(t *testing.T) {
	for _, d := range []Dynamics{DynamicsStatic, DynamicsDrift, DynamicsBursty} {
		sim, err := NewSimulation(Options{GridSide: 4, Seed: 5, Dynamics: d, EpochSeconds: 150})
		if err != nil {
			t.Fatalf("dynamics %d: %v", d, err)
		}
		rep := sim.RunEpoch()
		if rep.DecodeErrors != 0 {
			t.Fatalf("dynamics %d: decode errors", d)
		}
	}
}

func TestUniformNodesPlacement(t *testing.T) {
	sim, err := NewSimulation(Options{Nodes: 40, Seed: 8, EpochSeconds: 150})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Topology().Nodes != 40 {
		t.Fatalf("nodes = %d", sim.Topology().Nodes)
	}
}

func TestOptionValidation(t *testing.T) {
	cases := map[string]Options{
		"both layouts":  {GridSide: 5, Nodes: 10},
		"negative":      {GridSide: -1},
		"loss too big":  {UniformLoss: 1.5},
		"churn range":   {ParentChurn: 2},
		"tiny grid":     {GridSide: 1},
		"one node":      {Nodes: 1},
		"bad dynamics":  {Dynamics: Dynamics(42)},
		"drift uniform": {Dynamics: DynamicsDrift, UniformLoss: 0.2},
		"inf epoch":     {GridSide: 3, EpochSeconds: math.Inf(1)},
		"inf period":    {GridSide: 3, GenPeriodSeconds: math.Inf(1)},
		"inf mtbf":      {GridSide: 3, FailureMTBF: math.Inf(1)},
		"inf mttr":      {GridSide: 3, FailureMTBF: 200, FailureMTTR: math.Inf(1)},
		"nan churn":     {GridSide: 3, ParentChurn: math.NaN()},
		"nan loss":      {GridSide: 3, UniformLoss: math.NaN()},
		"nan mttr":      {GridSide: 3, FailureMTBF: 200, FailureMTTR: math.NaN()},
		"nan epoch":     {GridSide: 3, EpochSeconds: math.NaN()},
	}
	for name, opt := range cases {
		if _, err := NewSimulation(opt); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() *Report {
		sim, err := NewSimulation(Options{GridSide: 4, Seed: 9, EpochSeconds: 150})
		if err != nil {
			t.Fatal(err)
		}
		return sim.RunEpoch()
	}
	a, b := mk(), mk()
	if a.MAE != b.MAE || a.BytesPerPacket != b.BytesPerPacket || len(a.Estimates) != len(b.Estimates) {
		t.Fatal("same options+seed produced different results")
	}
}

func TestQueueCapOption(t *testing.T) {
	// Heavy load with tiny queues must show up as lost delivery while the
	// loss estimates stay sound.
	sim, err := NewSimulation(Options{
		GridSide: 5, Seed: 21, EpochSeconds: 200,
		GenPeriodSeconds: 0.5, QueueCap: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := sim.RunEpoch()
	if rep.DeliveryRatio > 0.9 {
		t.Fatalf("overload did not reduce delivery: %v", rep.DeliveryRatio)
	}
	if rep.DecodeErrors != 0 {
		t.Fatal("decode errors under congestion")
	}
	if math.IsNaN(rep.MAE) || rep.MAE > 0.12 {
		t.Fatalf("congestion corrupted link estimates: MAE=%v", rep.MAE)
	}
}

func TestFailureOptions(t *testing.T) {
	calm, err := NewSimulation(Options{GridSide: 5, Seed: 22, EpochSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := NewSimulation(Options{GridSide: 5, Seed: 22, EpochSeconds: 300, FailureMTBF: 200, FailureMTTR: 50})
	if err != nil {
		t.Fatal(err)
	}
	c := calm.RunEpoch()
	f := faulty.RunEpoch()
	if f.DeliveryRatio >= c.DeliveryRatio {
		t.Fatalf("failures did not reduce delivery: %v vs %v", f.DeliveryRatio, c.DeliveryRatio)
	}
	if f.DecodeErrors != 0 {
		t.Fatal("decode errors under failures")
	}
}

func TestNegativeOptionValidation(t *testing.T) {
	for name, opt := range map[string]Options{
		"neg queue": {GridSide: 4, QueueCap: -1},
		"neg mtbf":  {GridSide: 4, FailureMTBF: -1},
		"neg epoch": {GridSide: 4, EpochSeconds: -300},
		"neg gen":   {GridSide: 4, GenPeriodSeconds: -5},
	} {
		if _, err := NewSimulation(opt); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
