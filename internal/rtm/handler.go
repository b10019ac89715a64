package rtm

import (
	"fmt"

	"repro/internal/sim"
)

// handler is the body of a handler thread (NewHandler): the fixed loop
// receive one message from a port, Compute its cost, run a callback. It
// runs that loop as continuations on the thread's own wake timer instead of
// a coroutine. Every step mirrors what a sim.Proc running the same loop
// does — the same Block and Unblock semantics, wake token included, and one
// engine event wherever the coroutine is resumed — so the two fire the same
// events at the same times and sequence numbers; only the coroutine switch
// (and its Go scheduler turn, see sim.Proc) is gone.
type handler struct {
	t    *Thread
	port *Port
	cost func(msg any) sim.Time
	fn   func(msg any) bool

	// msg is the message whose CPU cost is being served while inCPU; a
	// handler not inCPU is parked receiving (or not yet started).
	msg   any
	inCPU bool

	// blocked, wakePending and dead mirror sim.Proc's blockedReason,
	// wakePending and dead: the reason while parked, the single wake token
	// an unblock leaves when it arrives while the handler is not parked,
	// and whether the loop has ended.
	blocked     string
	wakePending bool
	dead        bool

	// wake fires the thread's start and every resumption; resumeFn is
	// h.resume, bound once.
	wake     sim.Timer
	resumeFn func()
}

// NewHandler creates and starts a handler thread: a thread whose whole body
// is the loop
//
//	for {
//		m := port.Receive(t)
//		t.Compute(cost(m))
//		if !fn(m) {
//			return
//		}
//	}
//
// run without a coroutine. It takes the CPU exactly as that thread would
// (same ready queue, bursts, preemption and statistics), but cost and fn
// run in engine context and must not block: a thread that waits on anything
// but its one port and the CPU needs NewThread. A cost of zero or less
// skips the Compute. The thread ends when fn returns false or its port is
// destroyed (fn never sees a DeadName). It has no sim.Proc: Proc returns
// nil, and Compute, Sleep and SleepUntil must not be called on it.
func (k *Kernel) NewHandler(name string, prio int, quantum sim.Time, port *Port,
	cost func(msg any) sim.Time, fn func(msg any) bool) *Thread {
	if prio < PrioIdle || prio > PrioInterrupt {
		panic(fmt.Sprintf("rtm: priority %d out of range", prio))
	}
	t := &Thread{k: k, name: name, reason: "cpu:" + name, base: prio, quantum: quantum, state: StateNew}
	h := &handler{t: t, port: port, cost: cost, fn: fn}
	h.resumeFn = h.resume
	t.h = h
	// The start is one event at the current time, like Spawn's.
	k.eng.Schedule(&h.wake, k.eng.Now(), h.start)
	return t
}

// start is the first dispatch: the thread becomes runnable and runs its
// loop until it parks.
func (h *handler) start() {
	h.t.state = StateRunnable
	h.loop()
}

// resume continues the loop where it parked, as the coroutine's wake-up
// event would.
func (h *handler) resume() {
	if h.dead {
		return
	}
	if h.inCPU {
		m := h.msg
		h.msg, h.inCPU = nil, false
		if h.handle(m) {
			h.loop()
		}
		return
	}
	h.t.state = StateRunnable
	if m, ok, parked := h.awaitGiven(); !parked && h.serve(m, ok) {
		h.loop()
	}
}

// loop runs iterations from a fresh receive until the handler parks or
// ends.
func (h *handler) loop() {
	for {
		m, ok, parked := h.receive()
		if parked || !h.serve(m, ok) {
			return
		}
	}
}

// serve finishes one received message: its Compute, then the callback. It
// reports whether the loop runs on (false: parked for the CPU, or ended).
func (h *handler) serve(m any, ok bool) bool {
	if !ok {
		h.end()
		return false
	}
	if d := h.cost(m); d > 0 {
		h.t.demand(d)
		if h.park(h.t.reason) {
			h.msg, h.inCPU = m, true
			return false
		}
	}
	return h.handle(m)
}

// handle runs the callback; false ends the thread.
func (h *handler) handle(m any) bool {
	if h.fn(m) {
		return true
	}
	h.end()
	return false
}

func (h *handler) end() {
	h.t.state = StateDone
	h.dead = true
}

// receive is Port.Receive up to the first park: a queued message, a
// destroyed port (ok false), or the handler registered as a waiter.
func (h *handler) receive() (msg any, ok, parked bool) {
	p := h.port
	if len(p.msgs) > 0 {
		return shift(&p.msgs), true, false
	}
	if p.dead {
		return nil, false, false
	}
	w := &h.t.recv
	*w = portWaiter{t: h.t}
	p.waiters = append(p.waiters, w)
	return h.awaitGiven()
}

// awaitGiven is receivers.wait's loop: park until a Send hands the waiter
// a message, re-parking on a wake that brought none.
func (h *handler) awaitGiven() (msg any, ok, parked bool) {
	w := &h.t.recv
	for !w.given {
		if h.port.dead {
			return nil, false, false
		}
		h.t.state = StateBlocked
		if h.park(h.port.blockReason()) {
			return nil, false, true
		}
		h.t.state = StateRunnable
	}
	m := w.msg
	w.msg = nil
	return m, true, false
}

// park is sim.Proc.Block: it consumes a wake token and reports false (the
// loop runs on), or records the reason and reports true — the handler
// returns to the engine until unblock schedules its resumption.
func (h *handler) park(reason string) bool {
	if h.wakePending {
		h.wakePending = false
		return false
	}
	h.blocked = reason
	return true
}

// unblock is sim.Proc.Unblock: a parked handler resumes in an event at the
// current time; one that is not parked keeps a single wake token.
func (h *handler) unblock() {
	if h.dead {
		return
	}
	if h.blocked == "" {
		h.wakePending = true
		return
	}
	h.blocked = ""
	e := h.t.k.eng
	e.Schedule(&h.wake, e.Now(), h.resumeFn)
}
