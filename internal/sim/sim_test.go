package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// forever is the horizon that drains the queue.
var forever = Time(math.Inf(1))

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.Run(forever)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { got = append(got, i) })
	}
	e.Run(forever)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New()
	e.Schedule(2.5, func() {
		if e.Now() != 2.5 {
			t.Errorf("Now() = %v inside event at 2.5", e.Now())
		}
	})
	end := e.Run(forever)
	if end != 2.5 {
		t.Fatalf("Run returned %v, want 2.5", end)
	}
}

func TestAfter(t *testing.T) {
	e := New()
	var at Time
	e.Schedule(1, func() {
		e.After(0.5, func() { at = e.Now() })
	})
	e.Run(forever)
	if at != 1.5 {
		t.Fatalf("After fired at %v, want 1.5", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	e.Run(forever)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(1, func() {})
}

// TestScheduleNaNPanics pins that a NaN time is rejected like a past one:
// it would otherwise break heap order and, once popped, set the clock to
// NaN, after which every past-time check passes vacuously.
func TestScheduleNaNPanics(t *testing.T) {
	nan := Time(math.NaN())
	for _, c := range []struct {
		name     string
		schedule func(*Engine)
	}{
		{"Schedule", func(e *Engine) { e.Schedule(nan, func() {}) }},
		{"After", func(e *Engine) { e.After(nan, func() {}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			e.Schedule(1, func() {})
			defer func() {
				if recover() == nil {
					t.Fatalf("%s at NaN did not panic", c.name)
				}
				if e.Pending() != 1 || e.Now() != 0 {
					t.Fatalf("rejected NaN event left Pending=%d Now=%v", e.Pending(), e.Now())
				}
			}()
			c.schedule(e)
		})
	}
}

func TestNilHandlerPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestScheduleSteadyStateAllocs(t *testing.T) {
	e := New()
	// Warm the heap's backing array.
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run(forever)
	base := e.Now()
	allocs := testing.AllocsPerRun(100, func() {
		base++
		e.Schedule(base, func() {})
		e.Run(forever)
	})
	// The func literal captures nothing, so it is static; the event is a
	// value in the heap's reused backing array.
	if allocs != 0 {
		t.Fatalf("schedule/run cycle allocates %.1f objects, want 0", allocs)
	}
}

func TestRunHorizon(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	end := e.Run(2)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2", fired)
	}
	if end != 2 {
		t.Fatalf("Run(2) returned %v", end)
	}
	// Remaining event still fires on a later run.
	e.Run(forever)
	if len(fired) != 3 {
		t.Fatalf("event after horizon lost: %v", fired)
	}
}

func TestProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run(forever)
	if e.Processed() != 7 {
		t.Fatalf("Processed() = %d, want 7", e.Processed())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New()
	var order []string
	e.Schedule(1, func() {
		order = append(order, "a")
		e.Schedule(1.5, func() { order = append(order, "nested") })
	})
	e.Schedule(2, func() { order = append(order, "b") })
	e.Run(forever)
	want := []string{"a", "nested", "b"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Property: for any batch of event times, execution order is a sorted,
// complete permutation of the schedule.
func TestQuickOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var got []Time
		for _, r := range raw {
			at := Time(r) / 16
			e.Schedule(at, func() { got = append(got, at) })
		}
		e.Run(forever)
		if len(got) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.Run(forever)
	}
}

func TestNextAtEmptyQueue(t *testing.T) {
	e := New()
	if got := e.NextAt(); !math.IsInf(float64(got), 1) {
		t.Fatalf("NextAt on empty queue = %v, want +Inf", got)
	}
}

func TestNextAtTracksHead(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	if got := e.NextAt(); got != 5 {
		t.Fatalf("NextAt = %v, want 5", got)
	}
	e.Schedule(2, func() {})
	if got := e.NextAt(); got != 2 {
		t.Fatalf("NextAt after earlier schedule = %v, want 2", got)
	}
}

// TestNextAtCancelReschedule checks NextAt as the head leaves the queue and a
// new event takes its place. Events have no cancel handle, so the head leaves
// by running.
func TestNextAtCancelReschedule(t *testing.T) {
	e := New()
	e.Schedule(2, func() {})
	e.Schedule(5, func() {})
	e.Run(2)
	if got := e.NextAt(); got != 5 {
		t.Fatalf("NextAt after running the head = %v, want 5", got)
	}
	e.Schedule(3, func() {})
	if got := e.NextAt(); got != 3 {
		t.Fatalf("NextAt after reschedule = %v, want 3", got)
	}
	e.Run(forever)
	if got := e.NextAt(); !math.IsInf(float64(got), 1) {
		t.Fatalf("NextAt after drain = %v, want +Inf", got)
	}
}

func TestRunBeforeExcludesHorizon(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	end := e.RunBefore(3)
	if end != 3 {
		t.Fatalf("RunBefore returned %v, want 3", end)
	}
	if e.Now() != 3 {
		t.Fatalf("Now after RunBefore = %v, want 3", e.Now())
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("RunBefore(3) ran %v, want [1 2]", got)
	}
	// An event at exactly the horizon stays queued for the next window.
	if at := e.NextAt(); at != 3 {
		t.Fatalf("NextAt after window = %v, want 3", at)
	}
	e.RunBefore(Time(math.Inf(1)))
	if len(got) != 4 {
		t.Fatalf("second window ran %d events total, want 4", len(got))
	}
}

func TestRunBeforeAdvancesClockWhenIdle(t *testing.T) {
	e := New()
	e.RunBefore(7)
	if e.Now() != 7 {
		t.Fatalf("Now after idle RunBefore = %v, want 7", e.Now())
	}
	// Scheduling before the advanced clock must panic like any past schedule.
	defer func() {
		if recover() == nil {
			t.Fatal("schedule before advanced horizon did not panic")
		}
	}()
	e.Schedule(6, func() {})
}

func TestRunBeforeScheduleBeyondHorizonInsideWindow(t *testing.T) {
	e := New()
	var fired []string
	e.Schedule(1, func() {
		// One follow-up inside the window, one beyond its horizon.
		e.Schedule(2, func() { fired = append(fired, "inside") })
		e.Schedule(10, func() { fired = append(fired, "late") })
		fired = append(fired, "first")
	})
	e.RunBefore(5)
	if len(fired) != 2 || fired[0] != "first" || fired[1] != "inside" {
		t.Fatalf("window ran %v, want [first inside]", fired)
	}
	if at := e.NextAt(); at != 10 {
		t.Fatalf("NextAt = %v, want 10", at)
	}
	e.Run(forever)
	if len(fired) != 3 || fired[2] != "late" {
		t.Fatalf("drain ran %v, want [first inside late]", fired)
	}
}

// FuzzEventOrder decodes the input into byte pairs (op, arg): op%4 0 and 1
// schedule at Now()+(arg%8)/2, so ties are common, and op&4 makes that
// event schedule a follow-up at Now()+(op>>4%4)/2 when it fires; op%4 2
// and 3 run with Run and RunBefore to the horizon Now()+(arg%8)/2. After a
// final drain the fired sequence must be every scheduled event, in the
// order a stable sort of the schedule calls by time gives, each firing at
// its own time, and Now must never have decreased.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 3, 4, 3, 1, 0, 2, 2, 0x14, 1, 3, 3, 0, 0, 0x34, 0})
	f.Add([]byte{0, 7, 0, 7, 4, 7, 3, 7, 0, 0, 2, 0, 0x24, 1, 3, 1})
	f.Add([]byte{3, 5, 0, 0, 0x14, 0, 2, 8, 1, 1})
	f.Add([]byte{0, 7, 0, 0, 0, 0, 0, 0}) // a late event, then three ties: each pop must pick the smaller child
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New()
		var times []Time // scheduled time by schedule-call order
		var fired []int
		last := e.Now()
		monotone := func(where string) {
			if e.Now() < last {
				t.Fatalf("%s: Now went back from %v to %v", where, last, e.Now())
			}
			last = e.Now()
		}
		var schedule func(at Time, follow int)
		schedule = func(at Time, follow int) {
			id := len(times)
			times = append(times, at)
			e.Schedule(at, func() {
				monotone("handler")
				if e.Now() != at {
					t.Fatalf("event %d scheduled at %v fired at %v", id, at, e.Now())
				}
				fired = append(fired, id)
				if follow >= 0 {
					schedule(e.Now()+Time(follow)/2, -1)
				}
			})
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			d := Time(arg%8) / 2
			switch op % 4 {
			case 0, 1:
				follow := -1
				if op&4 != 0 {
					follow = int(op>>4) % 4
				}
				schedule(e.Now()+d, follow)
			case 2:
				e.Run(e.Now() + d)
			case 3:
				e.RunBefore(e.Now() + d)
			}
			monotone("after op")
		}
		e.Run(forever)
		want := make([]int, len(times))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return times[want[i]] < times[want[j]] })
		if len(fired) != len(want) {
			t.Fatalf("fired %d of %d scheduled events", len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("fired order %v, want %v", fired, want)
			}
		}
	})
}
