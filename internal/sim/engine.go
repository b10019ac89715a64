package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, expressed as an offset from the start of
// the simulation. The zero value is the simulation epoch.
type Time = time.Duration

// Infinity is a virtual time later than any time an experiment will reach.
const Infinity Time = math.MaxInt64

// Timer is a scheduled event and the caller's handle to it. It can be
// cancelled before it fires. A Timer that is no longer pending can be
// scheduled again with Engine.Schedule, so an owner with at most one
// pending event (a process's wake-up, a disk's completion) reuses one
// Timer instead of allocating a record per event.
type Timer struct {
	at  Time
	seq uint64 // the calendar entry that fires it; 0 when not pending
	fn  func()
}

// Cancel prevents the event from firing. It reports whether the event was
// still pending (true) or had already fired or been cancelled (false).
func (t *Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	t.seq = 0
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (t *Timer) Pending() bool {
	return t != nil && t.seq != 0
}

// When returns the virtual time at which the event is (or was) scheduled.
func (t *Timer) When() Time { return t.at }

// entry is one calendar slot. It carries its ordering key inline, so the
// calendar compares without touching the timers, and it is live while its
// seq is still its timer's: cancelling, firing or re-arming the timer
// changes the timer's seq, which leaves the old entry stale for the engine
// to skip.
type entry struct {
	at  Time
	seq uint64
	t   *Timer
}

func (en *entry) live() bool { return en.seq == en.t.seq }

// before reports whether a fires before b. The order is total, so the
// firing sequence is fully determined.
func before(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of entries ordered by (at, seq): the
// calendar's overflow, for entries past its ring.
type eventHeap []entry

func (h *eventHeap) push(en entry) {
	*h = append(*h, en) //crasvet:allow hotalloc -- overflow backing array stabilizes at the high-water mark of far events
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&en, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = en
}

// pop removes and returns the earliest entry; the heap must be non-empty.
func (h *eventHeap) pop() entry {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = entry{}
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&q[r], &q[c]) {
			c = r
		}
		if !before(&q[c], &last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use: events run on the goroutine that calls Step, Run or
// RunUntil, and a process body runs only while that goroutine has switched
// into it, so exactly one of them executes at a time.
type Engine struct {
	now  Time
	seq  uint64
	seed int64

	// dispatches counts process resumptions; every schedTurnEvery-th one
	// gives the Go scheduler a turn (see Proc.run).
	dispatches uint64
	tracer     func(t Time, format string, args ...any)

	cal calendar
}

// NewEngine returns an engine positioned at virtual time zero. The seed
// determines every named RNG stream drawn from the engine.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTracer installs a trace sink used by Tracef. A nil tracer disables
// tracing.
func (e *Engine) SetTracer(fn func(t Time, format string, args ...any)) { e.tracer = fn }

// Tracing reports whether a tracer is installed. Hot paths test it before
// calling Tracef, so an untraced run never boxes the trace arguments.
func (e *Engine) Tracing() bool { return e.tracer != nil }

// Tracef emits a trace line if a tracer is installed.
func (e *Engine) Tracef(format string, args ...any) {
	if e.tracer != nil {
		e.tracer(e.now, format, args...)
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: the simulation's causality would be violated. Scheduling at the
// current time is allowed; the event runs after all events already scheduled
// for that time. Each call allocates the returned Timer; an owner that has
// at most one pending event reuses its own through Schedule instead.
func (e *Engine) At(t Time, fn func()) *Timer {
	tm := &Timer{}
	e.Schedule(tm, t, fn)
	return tm
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Time, fn func()) *Timer {
	return e.At(e.deadline(d), fn)
}

// Schedule arms a caller-owned timer: fn runs at absolute virtual time at,
// exactly as with At. The timer must not be pending (it may have fired or
// been cancelled), and scheduling in the past panics as At does.
func (e *Engine) Schedule(t *Timer, at Time, fn func()) {
	if t.Pending() {
		panic("sim: scheduling a timer that is still pending")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now)) //crasvet:allow hotalloc -- formats only on the way to a causality panic; a clean cycle never evaluates it
	}
	e.seq++
	t.at, t.seq, t.fn = at, e.seq, fn
	e.cal.push(entry{at: at, seq: e.seq, t: t})
}

// deadline is the virtual time d from now; a negative d panics.
func (e *Engine) deadline(d Time) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d)) //crasvet:allow hotalloc -- formats only on the way to a misuse panic; a clean cycle never evaluates it
	}
	return e.now + d
}

// Step fires the next pending event, advancing virtual time to it. It
// reports whether an event fired.
func (e *Engine) Step() bool {
	for {
		_, p, s := e.cal.head()
		if p == empty {
			return false
		}
		if en := e.cal.pop(p, s); en.live() {
			e.fire(en)
			return true
		}
	}
}

// fire runs a live entry's event at its time.
func (e *Engine) fire(en entry) {
	e.now = en.at
	en.t.seq = 0
	en.t.fn()
}

// Run fires events until the calendar is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	for {
		h, p, s := e.cal.head()
		if p == empty || h.live() && h.at > t {
			break
		}
		// A stale head is dropped without advancing time.
		if en := e.cal.pop(p, s); en.live() {
			e.fire(en)
		}
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
