package radio

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dophy/internal/rng"
	"dophy/internal/sim"
	"dophy/internal/topo"
)

func testTopo(t *testing.T) *topo.Topology {
	t.Helper()
	tp := topo.Grid(4, 10, 0, 15, rng.New(1))
	if !tp.Connected() {
		t.Fatal("test topology disconnected")
	}
	return tp
}

func TestPRRFromDistanceMonotone(t *testing.T) {
	prev := 1.0
	for d := 0.0; d <= 30; d += 0.5 {
		p := prrFromDistance(d, 20)
		if p > prev+1e-12 {
			t.Fatalf("PRR increased with distance at d=%v", d)
		}
		if p < 0 || p > 1 {
			t.Fatalf("PRR out of range at d=%v: %v", d, p)
		}
		prev = p
	}
	if p := prrFromDistance(1, 20); p < 0.95 {
		t.Fatalf("very short link PRR = %v, want near 1", p)
	}
	if p := prrFromDistance(30, 20); p > 0.1 {
		t.Fatalf("beyond-range link PRR = %v, want near 0", p)
	}
}

func TestStaticStableAndInRange(t *testing.T) {
	tp := testTopo(t)
	m := NewStatic(tp, DefaultBase(), 42)
	for _, l := range tp.Links() {
		p0 := m.PRR(l, 0)
		p1 := m.PRR(l, 1000)
		if p0 != p1 {
			t.Fatalf("static PRR changed over time on %v", l)
		}
		if p0 < 0.01 || p0 > 1 {
			t.Fatalf("PRR out of range on %v: %v", l, p0)
		}
	}
}

func TestStaticDeterministicBySeed(t *testing.T) {
	tp := testTopo(t)
	a := NewStatic(tp, DefaultBase(), 7)
	b := NewStatic(tp, DefaultBase(), 7)
	c := NewStatic(tp, DefaultBase(), 8)
	same := true
	for _, l := range tp.Links() {
		if a.PRR(l, 0) != b.PRR(l, 0) {
			t.Fatalf("same seed, different PRR on %v", l)
		}
		if a.PRR(l, 0) != c.PRR(l, 0) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical link maps")
	}
}

func TestStaticUniformLoss(t *testing.T) {
	tp := testTopo(t)
	m := NewStaticUniformLoss(tp, 0.2)
	for _, l := range tp.Links() {
		if got := m.PRR(l, 0); math.Abs(got-0.8) > 1e-12 {
			t.Fatalf("uniform loss PRR = %v, want 0.8", got)
		}
	}
}

func TestStaticSetPRR(t *testing.T) {
	tp := testTopo(t)
	m := NewStatic(tp, DefaultBase(), 1)
	l := tp.Links()[0]
	m.SetPRR(l, 0.33)
	if got := m.PRR(l, 0); got != 0.33 {
		t.Fatalf("SetPRR not applied: %v", got)
	}
	m.SetPRR(l, 2) // clamped
	if got := m.PRR(l, 0); got != 1 {
		t.Fatalf("SetPRR clamp failed: %v", got)
	}
	ghost := topo.Link{From: 1000, To: 1001}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, ghost.String()) {
			t.Fatalf("SetPRR on a non-link: panic %q does not name the link %v", msg, ghost)
		}
	}()
	m.SetPRR(ghost, 0.5)
}

func TestUnknownLinkZero(t *testing.T) {
	tp := testTopo(t)
	for name, m := range map[string]Model{
		"static":          NewStatic(tp, DefaultBase(), 1),
		"uniform":         NewStaticUniformLoss(tp, 0.2),
		"random walk":     NewRandomWalk(tp, DefaultBase(), 1, 0.1, 1),
		"gilbert-elliott": NewGilbertElliott(tp, DefaultBase(), 10, 5, 0.3, 1),
	} {
		for _, ghost := range []topo.Link{{From: 1000, To: 1001}, {From: 0, To: 0}, {From: -1, To: 0}} {
			if got := m.PRR(ghost, 0); got != 0 {
				t.Errorf("%s: PRR(%v) = %v, want 0 for a non-link", name, ghost, got)
			}
		}
	}
}

func TestRandomWalkDrifts(t *testing.T) {
	tp := testTopo(t)
	m := NewRandomWalk(tp, DefaultBase(), 1, 0.3, 5)
	l := tp.Links()[0]
	p0 := m.PRR(l, 0)
	p1 := m.PRR(l, 500)
	if p0 == p1 {
		t.Fatalf("random walk did not move after 500 steps: %v", p0)
	}
	if p1 < 0.01 || p1 > 1 {
		t.Fatalf("walked PRR out of range: %v", p1)
	}
}

func TestRandomWalkLazyConsistent(t *testing.T) {
	tp := testTopo(t)
	l := tp.Links()[2]
	// Query every step vs jump straight to the end: same final value.
	a := NewRandomWalk(tp, DefaultBase(), 1, 0.2, 9)
	for now := sim.Time(0); now <= 100; now++ {
		a.PRR(l, now)
	}
	pa := a.PRR(l, 100)
	b := NewRandomWalk(tp, DefaultBase(), 1, 0.2, 9)
	pb := b.PRR(l, 100)
	if math.Abs(pa-pb) > 1e-12 {
		t.Fatalf("lazy advance inconsistent: %v vs %v", pa, pb)
	}
}

func TestRandomWalkBounded(t *testing.T) {
	tp := testTopo(t)
	m := NewRandomWalk(tp, DefaultBase(), 1, 1.0, 3) // violent walk
	for _, l := range tp.Links() {
		for _, now := range []sim.Time{10, 100, 1000} {
			p := m.PRR(l, now)
			if p < 0.015 || p > 0.999 {
				t.Fatalf("walk escaped bounds on %v at %v: %v", l, now, p)
			}
		}
	}
}

func TestGilbertElliottTwoLevels(t *testing.T) {
	tp := testTopo(t)
	m := NewGilbertElliott(tp, DefaultBase(), 10, 10, 0.25, 11)
	l := tp.Links()[0]
	base := m.links[m.lt.Index(l)].base
	seenGood, seenBad := false, false
	for now := sim.Time(0); now < 500; now += 0.5 {
		p := m.PRR(l, now)
		if math.Abs(p-base) < 1e-12 {
			seenGood = true
		} else if math.Abs(p-clamp(base*0.25, 0.01, 1)) < 1e-12 {
			seenBad = true
		} else {
			t.Fatalf("PRR %v is neither good (%v) nor bad level", p, base)
		}
	}
	if !seenGood || !seenBad {
		t.Fatalf("states visited: good=%v bad=%v; expected both over 500s", seenGood, seenBad)
	}
}

func TestGilbertElliottDwellFractions(t *testing.T) {
	tp := testTopo(t)
	// Asymmetric dwells: ~2/3 good, ~1/3 bad.
	m := NewGilbertElliott(tp, DefaultBase(), 20, 10, 0.2, 13)
	goodTime := 0.0
	total := 0.0
	l := tp.Links()[1]
	base := m.links[m.lt.Index(l)].base
	const dt = 0.25
	for now := sim.Time(0); now < 20000; now += dt {
		if math.Abs(m.PRR(l, now)-base) < 1e-12 {
			goodTime += dt
		}
		total += dt
	}
	frac := goodTime / total
	if math.Abs(frac-2.0/3) > 0.06 {
		t.Fatalf("good-state fraction = %v, want ~0.667", frac)
	}
}

func TestConstructorsPanicOnBadParams(t *testing.T) {
	tp := testTopo(t)
	for name, fn := range map[string]func(){
		"walk zero interval": func() { NewRandomWalk(tp, DefaultBase(), 0, 0.1, 1) },
		"ge zero dwell":      func() { NewGilbertElliott(tp, DefaultBase(), 0, 1, 0.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: every model keeps PRR within [0,1] for arbitrary query times.
func TestQuickPRRInRange(t *testing.T) {
	tp := topo.Grid(3, 10, 0, 15, rng.New(2))
	models := []Model{
		NewStatic(tp, DefaultBase(), 3),
		NewRandomWalk(tp, DefaultBase(), 1, 0.4, 3),
		NewGilbertElliott(tp, DefaultBase(), 5, 5, 0.3, 3),
	}
	links := tp.Links()
	f := func(tRaw uint16, li uint8) bool {
		now := sim.Time(tRaw) / 100
		l := links[int(li)%len(links)]
		for _, m := range models {
			p := m.PRR(l, now)
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRandomWalkPRR(b *testing.B) {
	tp := topo.Grid(10, 10, 0, 15, rng.New(1))
	m := NewRandomWalk(tp, DefaultBase(), 1, 0.2, 1)
	links := tp.Links()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PRR(links[i%len(links)], sim.Time(i)/10)
	}
}
