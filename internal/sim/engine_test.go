package sim

import (
	"strconv"
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

func TestScheduleAfterCancelFiresOnceAtNewTime(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	var fires []Time
	fn := func() { fires = append(fires, e.Now()) }
	e.Schedule(&tm, ms(10), fn)
	if !tm.Cancel() {
		t.Fatal("Cancel of a scheduled owner timer should report true")
	}
	e.Schedule(&tm, ms(20), fn)
	if tm.When() != ms(20) {
		t.Fatalf("When = %v, want 20ms", tm.When())
	}
	e.Run()
	if len(fires) != 1 || fires[0] != ms(20) {
		t.Fatalf("fires = %v, want one at 20ms", fires)
	}
	if tm.Pending() || tm.Cancel() {
		t.Fatal("a fired owner timer should be neither pending nor cancellable")
	}
	// A fired timer can be armed again.
	e.Schedule(&tm, ms(30), fn)
	e.Run()
	if len(fires) != 2 || fires[1] != ms(30) {
		t.Fatalf("fires = %v, want a second at 30ms", fires)
	}
}

func TestSchedulePendingTimerPanics(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	e.Schedule(&tm, ms(10), func() {})
	defer func() {
		if recover() == nil {
			t.Error("Schedule of a pending timer did not panic")
		}
	}()
	e.Schedule(&tm, ms(20), func() {})
}

func TestScheduleInPastPanicsLikeAt(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(ms(10))
	panicMsg := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	var tm Timer
	got := panicMsg(func() { e.Schedule(&tm, ms(5), func() {}) })
	want := panicMsg(func() { e.At(ms(5), func() {}) })
	if got == nil || got != want {
		t.Fatalf("Schedule in the past panicked with %v, At with %v", got, want)
	}
}

func TestPendingEventsSkipsStaleEntries(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	e.Schedule(&tm, ms(10), func() {})
	tm.Cancel()
	e.Schedule(&tm, ms(20), func() {}) // the 10ms entry stays behind, stale
	e.At(ms(30), func() {})
	if got := e.PendingEvents(); got != 2 {
		t.Fatalf("PendingEvents = %d, want 2", got)
	}
	e.RunUntil(ms(15))
	if e.Now() != ms(15) {
		t.Fatalf("Now = %v, want 15ms", e.Now())
	}
	if got := e.PendingEvents(); got != 2 {
		t.Fatalf("PendingEvents after the stale time = %d, want 2", got)
	}
}

// Property: with events scheduling, cancelling and re-arming others as they
// fire, the calendar fires every live arming exactly once, in (time, arming
// order) order, and never fires an arming after its cancel. The mix holds
// handles from At and owner timers re-armed through Schedule.
func TestPropertyCalendarInterleaved(t *testing.T) {
	type arming struct {
		at        Time
		n         int // arming order: the engine's tie-break within a time
		fired     int
		cancelled bool
	}
	f := func(seed int64) bool {
		e := NewEngine(seed)
		rng := e.RNG("calendar")
		ok := true
		var armings []*arming
		var fires []arming // (When(), arming order) recorded at fire time
		var handles []*Timer
		var handleArm []*arming
		var owners [3]Timer
		var ownerArm [3]*arming
		var react func()
		arm := func(at Time) *arming {
			a := &arming{at: at, n: len(armings)}
			armings = append(armings, a)
			return a
		}
		fire := func(tm *Timer, a *arming) {
			if a.cancelled || tm.Pending() || tm.When() != e.Now() {
				ok = false
			}
			a.fired++
			fires = append(fires, arming{at: tm.When(), n: a.n})
			react()
		}
		cancel := func(tm *Timer, a *arming) {
			want := a.fired == 0 && !a.cancelled
			if tm.Pending() != want || tm.Cancel() != want {
				ok = false
			}
			if want {
				a.cancelled = true
			}
		}
		schedule := func() {
			at := e.Now() + Time(rng.Intn(4))
			if i := rng.Intn(2 * len(owners)); i < len(owners) {
				o := &owners[i]
				if o.Pending() {
					cancel(o, ownerArm[i])
				}
				a := arm(at)
				ownerArm[i] = a
				e.Schedule(o, at, func() { fire(o, a) })
				return
			}
			a := arm(at)
			var tm *Timer
			tm = e.At(at, func() { fire(tm, a) })
			handles = append(handles, tm)
			handleArm = append(handleArm, a)
		}
		react = func() {
			for k := rng.Intn(3); k > 0 && len(armings) < 400; k-- {
				schedule()
			}
			if rng.Intn(4) == 0 && len(handles) > 0 {
				i := rng.Intn(len(handles))
				cancel(handles[i], handleArm[i])
			}
			if i := rng.Intn(4 * len(owners)); i < len(owners) && ownerArm[i] != nil {
				cancel(&owners[i], ownerArm[i])
			}
		}
		for i := 0; i < 8; i++ {
			schedule()
		}
		e.Run()
		for k := 1; k < len(fires); k++ {
			a, b := fires[k-1], fires[k]
			if a.at > b.at || a.at == b.at && a.n >= b.n {
				return false
			}
		}
		live := 0
		for _, a := range armings {
			if a.cancelled && a.fired != 0 || !a.cancelled && a.fired != 1 {
				return false // fired after a cancel, twice, or never
			}
			if !a.cancelled {
				live++
			}
		}
		return ok && live == len(fires) && e.PendingEvents() == 0
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

// calendarLoad returns an engine holding n owner timers, each re-armed
// 33 ms ahead when it fires (frame pacing), jittered by up to 100 µs, where
// every fifth firing also arms its owner's second timer at the current
// instant (a wake-up handed on). At 1,024 timers the jitter makes a ring
// insert walk 0.5 list nodes on average (a third of them walk, 1.5 nodes
// each), near crasperf's workloads at seed 31 (0.2–0.4 nodes per ring
// insert). Nothing in it allocates once the calendar has grown to its
// high-water mark.
func calendarLoad(n int) *Engine {
	type owner struct {
		tick, echo Timer
		fire       func()
	}
	e := NewEngine(1)
	rng := e.RNG("calendar-load")
	owners := make([]owner, n)
	fires := 0
	noop := func() {}
	for i := range owners {
		o := &owners[i]
		o.fire = func() {
			e.Schedule(&o.tick, e.Now()+33*time.Millisecond+Time(rng.Int63n(int64(100*time.Microsecond))), o.fire)
			if fires++; fires%5 == 0 && !o.echo.Pending() {
				e.Schedule(&o.echo, e.Now(), noop)
			}
		}
		e.Schedule(&o.tick, Time(rng.Int63n(int64(33*time.Millisecond))), o.fire)
	}
	return e
}

// BenchmarkEventCalendar times one fired event (one Step) with 64 or 1,024
// owner timers pending. BenchmarkEventSchedule keeps a single event
// pending, so it never sees the calendar's cost grow with its size.
func BenchmarkEventCalendar(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			e := calendarLoad(n)
			for i := 0; i < 20*n; i++ {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
