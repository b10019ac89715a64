package sim

import (
	"fmt"
	"sort"
	"testing"
)

// span is the time the calendar's ring covers.
const span = Time(ringBuckets) << bucketShift

// Regression: an event at the current instant schedules 2 ms ahead while
// the ring's next entry is 40 ms ahead. The new entry must land in its own
// bucket and fire first. A calendar that moved its base to the next ring
// entry while only peeking at it put the new entry a lap of the ring
// (67 ms) late.
func TestCalendarSameInstantScheduleLandsInItsBucket(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(e *Engine, record func(string) func())
	}{
		{"at the epoch", func(e *Engine, record func(string) func()) {
			e.At(ms(40), record("ring"))
			e.At(0, func() { e.At(ms(2), record("near")) })
		}},
		{"from a same-instant event", func(e *Engine, record func(string) func()) {
			e.At(ms(100), func() {
				e.At(ms(100), func() { e.At(ms(102), record("near")) })
			})
			e.At(ms(140), record("ring"))
		}},
		{"after RunUntil stopped short of the ring's entry", func(e *Engine, record func(string) func()) {
			e.At(ms(40), record("ring"))
			e.RunUntil(ms(10))
			e.At(ms(12), record("near"))
		}},
		{"from a spawned process", func(e *Engine, record func(string) func()) {
			e.At(ms(40), record("ring"))
			e.Spawn("p", func(p *Proc) {
				p.Sleep(ms(2))
				record("near")()
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			var order []string
			tc.setup(e, func(s string) func() {
				return func() { order = append(order, s) }
			})
			e.Run()
			if fmt.Sprint(order) != "[near ring]" {
				t.Fatalf("fired %v, want [near ring]", order)
			}
		})
	}
}

// armed is one arming in the reference calendar: its time and its arming
// order, the engine's tie-break within a time.
type armed struct {
	at Time
	n  int
}

func (a armed) before(b armed) bool { return a.at < b.at || a.at == b.at && a.n < b.n }

// refCalendar is the reference: the pending armings in a slice sorted by
// (at, n).
type refCalendar []armed

func (r *refCalendar) add(a armed) {
	q := *r
	i := sort.Search(len(q), func(i int) bool { return a.before(q[i]) })
	q = append(q, armed{})
	copy(q[i+1:], q[i:])
	q[i] = a
	*r = q
}

// remove drops arming n and reports whether it was pending.
func (r *refCalendar) remove(n int) bool {
	for i, a := range *r {
		if a.n == n {
			*r = append((*r)[:i], (*r)[i+1:]...)
			return true
		}
	}
	return false
}

// drawDelay returns how far ahead to arm: at the current instant, within a
// bucket, across the ring, past it, on a bucket edge, or at the time of an
// arming already pending (a tie broken by arming order).
func drawDelay(rng *RNG, now Time, ref refCalendar) Time {
	const bucketLen = Time(1) << bucketShift
	switch rng.Intn(7) {
	case 0:
		return 0
	case 1:
		return Time(rng.Int63n(int64(bucketLen)))
	case 2:
		return Time(rng.Int63n(int64(span)))
	case 3:
		return span + Time(rng.Int63n(int64(8*span)))
	case 4:
		edge := (now/bucketLen + Time(rng.Intn(ringBuckets+2))) * bucketLen
		d := edge - now + Time(rng.Intn(3)-1)
		return max(d, 0)
	case 5:
		if len(ref) > 0 {
			return ref[rng.Intn(len(ref))].at - now
		}
		return 0
	default:
		return Time(rng.Int63n(int64(4 * bucketLen)))
	}
}

// runCalendarScript drives an engine through one seeded script: events
// that arm, cancel and re-arm others as they fire, owner timers and At
// handles, RunUntil stops, single Steps and idle gaps longer than the
// ring. Every firing is checked against the reference and the calendar's
// invariants. It returns the first discrepancy, or nil.
func runCalendarScript(seed int64) error {
	e := NewEngine(seed)
	rng := e.RNG("calendar-script")
	var (
		ref      refCalendar
		err      error
		armings  int
		fired    int
		handles  []*Timer
		handleN  []int
		owners   [4]Timer
		ownerN   [4]int
		schedule func()
	)
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("seed %d, now %v: %s", seed, e.Now(), fmt.Sprintf(format, args...))
		}
	}
	fire := func(tm *Timer, n int) func() {
		return func() {
			fired++
			if len(ref) == 0 || ref[0].n != n {
				fail("fired arming %d, reference head %v", n, ref[:min(len(ref), 1)])
				return
			}
			if e.Now() != ref[0].at || tm.Pending() {
				fail("arming %d fired at %v (pending %v), armed for %v", n, e.Now(), tm.Pending(), ref[0].at)
			}
			ref = ref[1:]
			if cerr := e.checkCalendar(); cerr != nil {
				fail("%v", cerr)
			}
			for k := rng.Intn(3); k > 0 && armings < 600; k-- {
				schedule()
			}
			if rng.Intn(4) == 0 && len(handles) > 0 {
				i := rng.Intn(len(handles))
				if handles[i].Cancel() != ref.remove(handleN[i]) {
					fail("Cancel of arming %d disagrees with the reference", handleN[i])
				}
			}
			if i := rng.Intn(3 * len(owners)); i < len(owners) {
				if owners[i].Cancel() != ref.remove(ownerN[i]) {
					fail("Cancel of owner %d disagrees with the reference", i)
				}
			}
		}
	}
	schedule = func() {
		at := e.Now() + drawDelay(rng, e.Now(), ref)
		armings++
		n := armings
		ref.add(armed{at, n})
		if i := rng.Intn(2 * len(owners)); i < len(owners) {
			o := &owners[i]
			if o.Cancel() != ref.remove(ownerN[i]) {
				fail("re-arm of owner %d: Cancel disagrees with the reference", i)
			}
			ownerN[i] = n
			e.Schedule(o, at, fire(o, n))
			return
		}
		tm := &Timer{}
		e.Schedule(tm, at, fire(tm, n))
		handles = append(handles, tm)
		handleN = append(handleN, n)
	}
	for round := 0; round < 40 && err == nil; round++ {
		for k := rng.Intn(6); k > 0; k-- {
			schedule()
		}
		switch rng.Intn(4) {
		case 0: // stop short, possibly inside a bucket or past the ring
			until := e.Now() + drawDelay(rng, e.Now(), ref)
			e.RunUntil(until)
			if e.Now() != until {
				fail("RunUntil(%v) left the clock at %v", until, e.Now())
			}
			if len(ref) > 0 && ref[0].at <= until {
				fail("RunUntil(%v) left arming %v pending", until, ref[0])
			}
		case 1:
			for k := rng.Intn(8); k > 0 && e.Step(); k-- {
			}
		case 2: // drain, then idle for longer than the ring spans
			e.Run()
			e.RunFor(span + Time(rng.Int63n(int64(4*span))))
		default:
			e.RunFor(Time(rng.Int63n(int64(span / 4))))
		}
		if cerr := e.checkCalendar(); cerr != nil {
			fail("%v", cerr)
		}
	}
	e.Run()
	switch {
	case err != nil:
	case len(ref) != 0:
		fail("calendar drained with %d armings still pending in the reference", len(ref))
	case e.PendingEvents() != 0:
		fail("PendingEvents = %d after draining", e.PendingEvents())
	case fired == 0:
		fail("nothing fired")
	}
	return err
}

// Property: across every time scale the calendar holds (the current
// instant, within a bucket, across the ring, past it, after an idle gap),
// with RunUntil stops, cancels and owner re-arms interleaved, events fire
// in exactly the reference's (time, arming order) sequence.
func TestPropertyCalendarTimeScales(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		if err := runCalendarScript(seed); err != nil {
			t.Fatal(err)
		}
	}
}

// Once the calendar has grown to its high-water mark, firing events and
// re-arming their timers allocates nothing, with 1,024 owner timers
// pending across the ring and same-instant events beside them. The count
// is over a whole batch of events, not per event: AllocsPerRun rounds
// down, so a calendar that grew a slice every few hundred events would
// read 0 per event.
func TestCalendarSteadyStateAllocs(t *testing.T) {
	const n = 1024
	e := calendarLoad(n)
	steps := func() {
		for i := 0; i < 20*n; i++ {
			e.Step()
		}
	}
	steps()
	if got := testing.AllocsPerRun(5, steps); got != 0 {
		t.Fatalf("allocs per %d fired events = %v, want 0", 20*n, got)
	}
}
