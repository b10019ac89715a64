package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, expressed as an offset from the start of
// the simulation. The zero value is the simulation epoch.
type Time = time.Duration

// Infinity is a virtual time later than any time an experiment will reach.
const Infinity Time = math.MaxInt64

// Timer is a scheduled event and the caller's handle to it: the engine's
// calendar holds the Timer itself, so scheduling allocates one record. It
// can be cancelled before it fires.
type Timer struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
	fired     bool
}

// Cancel prevents the event from firing. It reports whether the event was
// still pending (true) or had already fired or been cancelled (false).
func (t *Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	t.cancelled = true
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (t *Timer) Pending() bool {
	return t != nil && !t.cancelled && !t.fired
}

// When returns the virtual time at which the event is (or was) scheduled.
func (t *Timer) When() Time { return t.at }

type eventHeap []*Timer

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Timer)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
func (h eventHeap) Peek() *Timer { return h[0] }

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use from multiple goroutines except through the process
// primitives, which serialize themselves.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	seed    int64
	stopped bool

	// park is the handshake channel between the engine goroutine and the
	// currently running process goroutine: whichever side is about to give
	// up control sends on it and the other side receives.
	park chan struct{}

	// procPanic carries a panic out of a process goroutine so the engine
	// can re-raise it where the test harness will see it.
	procPanic any
	live      int // live (spawned, not yet finished) processes
	tracer    func(t Time, format string, args ...any)
}

// NewEngine returns an engine positioned at virtual time zero. The seed
// determines every named RNG stream drawn from the engine.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, park: make(chan struct{})}
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
// for that time.
func (e *Engine) At(t Time, fn func()) *Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now)) //crasvet:allow hotalloc -- formats only on the way to a causality panic; a clean cycle never evaluates it
	}
	e.seq++
	ev := &Timer{at: t, seq: e.seq, fn: fn} //crasvet:allow hotalloc -- one record per scheduled callback is the engine's unit of work; it is also the caller's handle, so it cannot be pooled without breaking Cancel-after-fire
	heap.Push(&e.events, ev)
	return ev
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d)) //crasvet:allow hotalloc -- formats only on the way to a misuse panic; a clean cycle never evaluates it
	}
	return e.At(e.now+d, fn)
}

// Stop makes the current Run call return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the next pending event, advancing virtual time to it. It
// reports whether an event fired.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*Timer)
		if ev.cancelled {
			continue
		}
		e.now = ev.at
		ev.fired = true
		ev.fn()
		if e.procPanic != nil {
			p := e.procPanic
			e.procPanic = nil
			panic(p)
		}
		return true
	}
	return false
}

// Run fires events until the calendar is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.events) == 0 {
			break
		}
		// Skip over cancelled heads without advancing time.
		if e.events.Peek().cancelled {
			heap.Pop(&e.events)
			continue
		}
		if e.events.Peek().at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// PendingEvents returns the number of scheduled, non-cancelled events.
func (e *Engine) PendingEvents() int {
	n := 0
	for _, ev := range e.events {
		if !ev.cancelled {
			n++
		}
	}
	return n
}
