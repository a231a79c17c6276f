package mac

import (
	"math"
	"testing"

	"dophy/internal/radio"
	"dophy/internal/rng"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

func chainTopo() *topo.Topology {
	return topo.Grid(2, 10, 0, 11, rng.New(1))
}

var link = topo.Link{From: 1, To: 0}

func newARQ(prr float64, cfg Config, rec *trace.Recorder) *ARQ {
	tp := chainTopo()
	m := radio.NewStaticUniformLoss(tp, 1-prr)
	return New(cfg, m, rng.New(99), rec)
}

func TestPerfectLinkOneAttempt(t *testing.T) {
	a := newARQ(1.0, DefaultConfig(), nil)
	for i := 0; i < 100; i++ {
		res := a.Send(link, 0)
		if !res.Delivered || res.Attempts != 1 || res.AckedAttempt != 1 {
			t.Fatalf("perfect link result = %+v", res)
		}
	}
}

func TestDeadLinkDrops(t *testing.T) {
	a := newARQ(0.0, Config{MaxRetx: 3}, nil)
	res := a.Send(link, 0)
	if res.Delivered || res.Attempts != 4 || res.AckedAttempt != 0 {
		t.Fatalf("dead link result = %+v", res)
	}
}

func TestAttemptsWithinBudget(t *testing.T) {
	a := newARQ(0.3, Config{MaxRetx: 5}, nil)
	for i := 0; i < 2000; i++ {
		res := a.Send(link, 0)
		if res.Attempts < 1 || res.Attempts > 6 {
			t.Fatalf("attempts out of budget: %+v", res)
		}
		if res.Delivered && res.AckedAttempt > res.Attempts {
			t.Fatalf("acked attempt beyond attempts: %+v", res)
		}
	}
}

func TestAttemptsGeometric(t *testing.T) {
	// With PRR p and no ack loss, mean attempts for delivered packets should
	// match the truncated geometric mean.
	const p = 0.5
	cfg := Config{MaxRetx: 7}
	a := newARQ(p, cfg, nil)
	const n = 200000
	sum, delivered := 0.0, 0
	for i := 0; i < n; i++ {
		res := a.Send(link, 0)
		if res.Delivered {
			sum += float64(res.Attempts)
			delivered++
		}
	}
	mean := sum / float64(delivered)
	// E[T | T <= R+1] for geometric(p) truncated at R+1 attempts.
	R := cfg.MaxRetx
	num, den := 0.0, 0.0
	for k := 1; k <= R+1; k++ {
		pk := math.Pow(1-p, float64(k-1)) * p
		num += float64(k) * pk
		den += pk
	}
	want := num / den
	if math.Abs(mean-want) > 0.02 {
		t.Fatalf("mean attempts = %v, want ~%v", mean, want)
	}
}

func TestDeliveryRateMatchesAnalytic(t *testing.T) {
	const p = 0.3
	cfg := Config{MaxRetx: 3}
	a := newARQ(p, cfg, nil)
	const n = 100000
	delivered := 0
	for i := 0; i < n; i++ {
		if a.Send(link, 0).Delivered {
			delivered++
		}
	}
	got := float64(delivered) / n
	want := 1 - math.Pow(1-p, float64(cfg.MaxRetx+1))
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("delivery rate = %v, want ~%v", got, want)
	}
}

func TestAckLossInflatesAttempts(t *testing.T) {
	const p = 0.9
	noAck := newARQ(p, Config{MaxRetx: 7, AckLoss: 0}, nil)
	lossy := newARQ(p, Config{MaxRetx: 7, AckLoss: 0.5}, nil)
	const n = 50000
	sumA, sumB := 0.0, 0.0
	for i := 0; i < n; i++ {
		sumA += float64(noAck.Send(link, 0).Attempts)
		sumB += float64(lossy.Send(link, 0).Attempts)
	}
	if sumB <= sumA*1.2 {
		t.Fatalf("ack loss did not inflate attempts: %v vs %v", sumB/n, sumA/n)
	}
}

func TestAckLossStillDelivers(t *testing.T) {
	// Even with every-other ACK lost, delivery should track the data PRR.
	a := newARQ(1.0, Config{MaxRetx: 2, AckLoss: 0.9}, nil)
	for i := 0; i < 100; i++ {
		if !a.Send(link, 0).Delivered {
			t.Fatal("packet with perfect data link not delivered under ack loss")
		}
	}
}

func TestTraceRecording(t *testing.T) {
	rec := trace.NewRecorder(chainTopo().LinkTable())
	a := newARQ(0.5, Config{MaxRetx: 7}, rec)
	totalAttempts := 0
	for i := 0; i < 1000; i++ {
		totalAttempts += a.Send(link, 0).Attempts
	}
	c := rec.Link(link)
	if c.Attempts != int64(totalAttempts) {
		t.Fatalf("trace attempts = %d, result sum = %d", c.Attempts, totalAttempts)
	}
	loss, ok := c.Loss(1)
	if !ok || math.Abs(loss-0.5) > 0.05 {
		t.Fatalf("empirical loss = %v, want ~0.5", loss)
	}
}

func TestConfigValidation(t *testing.T) {
	tp := chainTopo()
	m := radio.NewStaticUniformLoss(tp, 0)
	for name, cfg := range map[string]Config{
		"negative retx": {MaxRetx: -1},
		"ack loss 1":    {MaxRetx: 1, AckLoss: 1},
		"NaN ack loss":  {MaxRetx: 1, AckLoss: math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			New(cfg, m, rng.New(1), nil)
		}()
	}
}

func TestMaxAttempts(t *testing.T) {
	a := newARQ(1, Config{MaxRetx: 4}, nil)
	if a.MaxAttempts() != 5 {
		t.Fatalf("MaxAttempts = %d", a.MaxAttempts())
	}
}

func BenchmarkSend(b *testing.B) {
	a := newARQ(0.8, DefaultConfig(), nil)
	for i := 0; i < b.N; i++ {
		a.Send(link, 0)
	}
}

func TestFirstDeliveredSemantics(t *testing.T) {
	// Without ack loss, FirstDelivered always equals Attempts and AckedAttempt.
	a := newARQ(0.4, Config{MaxRetx: 7}, nil)
	for i := 0; i < 5000; i++ {
		res := a.Send(link, 0)
		if res.Delivered {
			if res.FirstDelivered != res.Attempts || res.AckedAttempt != res.Attempts {
				t.Fatalf("no-ack-loss invariant broken: %+v", res)
			}
		} else if res.FirstDelivered != 0 {
			t.Fatalf("undelivered packet has FirstDelivered: %+v", res)
		}
	}
	// With ack loss, FirstDelivered <= Attempts always.
	b := newARQ(0.6, Config{MaxRetx: 7, AckLoss: 0.4}, nil)
	sawGap := false
	for i := 0; i < 5000; i++ {
		res := b.Send(link, 0)
		if res.Delivered && res.FirstDelivered > res.Attempts {
			t.Fatalf("FirstDelivered beyond attempts: %+v", res)
		}
		if res.Delivered && res.FirstDelivered < res.Attempts {
			sawGap = true
		}
	}
	if !sawGap {
		t.Fatal("ack loss never produced duplicate retransmissions")
	}
}

func TestAckOverReverseLink(t *testing.T) {
	// Perfect forward link, dead reverse link: every packet delivers on the
	// first attempt but no ACK ever arrives, so the sender burns its whole
	// budget.
	tp := chainTopo()
	m := radio.NewStaticUniformLoss(tp, 0)
	m.SetPRR(topo.Link{From: 0, To: 1}, 0) // reverse of 1->0
	a := New(Config{MaxRetx: 3, AckOverReverseLink: true}, m, rng.New(5), nil)
	for i := 0; i < 50; i++ {
		res := a.Send(link, 0)
		if !res.Delivered || res.FirstDelivered != 1 {
			t.Fatalf("forward delivery broken: %+v", res)
		}
		if res.Attempts != 4 || res.AckedAttempt != 0 {
			t.Fatalf("dead ACK channel did not exhaust budget: %+v", res)
		}
	}
	// Healthy reverse link: single attempts again.
	m.SetPRR(topo.Link{From: 0, To: 1}, 1)
	res := a.Send(link, 0)
	if res.Attempts != 1 || res.AckedAttempt != 1 {
		t.Fatalf("healthy ACK channel result: %+v", res)
	}
}
