package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) Time { return Time(n) * time.Millisecond }

func TestEventOrderByTime(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(ms(30), func() { order = append(order, 3) })
	e.At(ms(10), func() { order = append(order, 1) })
	e.At(ms(20), func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != ms(30) {
		t.Fatalf("Now = %v, want 30ms", e.Now())
	}
}

func TestEventTieBreakBySequence(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(ms(5), func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of FIFO order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.At(ms(10), func() {
		e.After(ms(5), func() { at = e.Now() })
	})
	e.Run()
	if at != ms(15) {
		t.Fatalf("After fired at %v, want 15ms", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(ms(10), func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(ms(5), func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative After delay did not panic")
		}
	}()
	e.After(-ms(1), func() {})
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.At(ms(10), func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending before firing")
	}
	if !tm.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if tm.Pending() {
		t.Fatal("cancelled timer still pending")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(ms(10), func() {})
	e.Run()
	if tm.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(ms(100))
	if e.Now() != ms(100) {
		t.Fatalf("Now = %v, want 100ms", e.Now())
	}
}

func TestRunUntilDoesNotFireLaterEvents(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(ms(50), func() { fired = true })
	e.RunUntil(ms(20))
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != ms(20) {
		t.Fatalf("Now = %v, want 20ms", e.Now())
	}
	e.RunUntil(ms(60))
	if !fired {
		t.Fatal("event within extended horizon did not fire")
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(ms(20), func() { fired = true })
	e.RunUntil(ms(20))
	if !fired {
		t.Fatal("event exactly at horizon should fire")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	var count int
	for i := 1; i <= 5; i++ {
		e.At(ms(i*10), func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Fatalf("ran %d events after Stop, want 2", count)
	}
}

func TestRunForIsRelative(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(ms(10))
	e.RunFor(ms(10))
	if e.Now() != ms(20) {
		t.Fatalf("Now = %v, want 20ms", e.Now())
	}
}

func TestPendingEventsExcludesCancelled(t *testing.T) {
	e := NewEngine(1)
	e.At(ms(1), func() {})
	tm := e.At(ms(2), func() {})
	tm.Cancel()
	if got := e.PendingEvents(); got != 1 {
		t.Fatalf("PendingEvents = %d, want 1", got)
	}
}

func TestRunUntilSkipsCancelledHead(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(ms(5), func() { t.Error("cancelled event fired") })
	fired := false
	e.At(ms(50), func() { fired = true })
	tm.Cancel()
	// The cancelled event sits at the heap head beyond the horizon check;
	// RunUntil must skip it without advancing time to it.
	e.RunUntil(ms(10))
	if e.Now() != ms(10) {
		t.Fatalf("Now = %v, want 10ms", e.Now())
	}
	e.RunUntil(ms(60))
	if !fired {
		t.Fatal("later event did not fire")
	}
}

// Property: with events scheduling and cancelling others as they fire, the
// calendar still fires every live timer exactly once, in (time, seq) order.
func TestPropertyCalendarInterleaved(t *testing.T) {
	f := func(seed int64) bool {
		e := NewEngine(seed)
		rng := e.RNG("calendar")
		var timers, fired []*Timer
		var schedule func()
		schedule = func() {
			tm := e.After(Time(rng.Intn(4)), nil)
			tm.fn = func() {
				fired = append(fired, tm)
				for k := rng.Intn(3); k > 0 && len(timers) < 400; k-- {
					schedule()
				}
				if rng.Intn(4) == 0 {
					timers[rng.Intn(len(timers))].Cancel()
				}
			}
			timers = append(timers, tm)
		}
		for i := 0; i < 8; i++ {
			schedule()
		}
		e.Run()
		for k := 1; k < len(fired); k++ {
			if !before(fired[k-1], fired[k]) {
				return false
			}
		}
		live := 0
		for _, tm := range timers {
			if tm.fired == tm.cancelled {
				return false // fired after a cancel, or neither
			}
			if tm.fired {
				live++
			}
		}
		return live == len(fired) && e.PendingEvents() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine(seed)
		var order []int
		rng := e.RNG("jitter")
		for i := 0; i < 100; i++ {
			i := i
			e.At(Time(rng.Int63n(int64(ms(100)))), func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs with the same seed diverged at %d", i)
		}
	}
}

func TestRNGStreamsIndependentAndStable(t *testing.T) {
	e1 := NewEngine(7)
	e2 := NewEngine(7)
	a := e1.RNG("disk")
	b := e2.RNG("disk")
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed,name) produced different streams")
		}
	}
	c := NewEngine(7).RNG("media")
	d := NewEngine(7).RNG("disk")
	same := true
	for i := 0; i < 10; i++ {
		if c.Int63() != d.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different names produced identical streams")
	}
}

func TestRNGDurationRange(t *testing.T) {
	r := NewEngine(3).RNG("x")
	for i := 0; i < 1000; i++ {
		v := r.DurationRange(ms(5), ms(10))
		if v < ms(5) || v >= ms(10) {
			t.Fatalf("DurationRange out of bounds: %v", v)
		}
	}
	if r.DurationRange(ms(5), ms(5)) != ms(5) {
		t.Fatal("empty range should return lo")
	}
}

func TestRNGNormalClamped(t *testing.T) {
	r := NewEngine(3).RNG("n")
	for i := 0; i < 1000; i++ {
		v := r.Normal(10, 100, 0, 20)
		if v < 0 || v > 20 {
			t.Fatalf("Normal out of clamp range: %v", v)
		}
	}
}

// Property: for any batch of (delay, id) pairs, events fire sorted by
// (time, insertion order).
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(1)
		type fire struct {
			at  Time
			idx int
		}
		var fires []fire
		for i, d := range delays {
			i, at := i, Time(d)*time.Microsecond
			e.At(at, func() { fires = append(fires, fire{e.Now(), i}) })
		}
		e.Run()
		if len(fires) != len(delays) {
			return false
		}
		for k := 1; k < len(fires); k++ {
			if fires[k].at < fires[k-1].at {
				return false
			}
			if fires[k].at == fires[k-1].at && fires[k].idx < fires[k-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTracef(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.SetTracer(func(at Time, format string, args ...any) { got = append(got, format) })
	e.At(ms(1), func() { e.Tracef("hello %d", 1) })
	e.Run()
	if len(got) != 1 || got[0] != "hello %d" {
		t.Fatalf("tracer not invoked as expected: %v", got)
	}
	e.SetTracer(nil)
	e.Tracef("ignored") // must not panic
}

func BenchmarkEventSchedule(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		if n++; n < b.N {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
