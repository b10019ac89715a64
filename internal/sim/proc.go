//go:build go1.23

// The build constraint raises this file's language version to Go 1.23, the
// first with iter.Pull, while go.mod stays at 1.22 for the modules that
// replace this one.

package sim

import (
	"fmt"
	"iter"
	"runtime"
)

// schedTurnEvery is how many process dispatches pass between turns given to
// the Go scheduler. A coroutine switch never enters the scheduler, so on a
// single P the GC's mark worker would otherwise run only at the 10 ms
// preemption tick, stretching each mark phase (and its write barriers).
const schedTurnEvery = 8

// Proc is a simulated sequential process: a coroutine whose execution is
// interleaved deterministically with the engine's events. At most one
// process (or event callback) runs at a time; a process gives up control
// only at explicit blocking points (Sleep, Block, Waiter.Wait, ...).
type Proc struct {
	eng  *Engine
	name string
	dead bool

	// next resumes the process coroutine until its next yield; yieldFn
	// suspends it again. Both come from the iter.Pull wrapping the body.
	next    func() (struct{}, bool)
	yieldFn func(struct{}) bool

	// blockedReason is non-empty while the process is parked in Block;
	// wakePending is the single wakeup token an Unblock leaves when it
	// arrives before the matching Block.
	blockedReason string
	wakePending   bool

	// wake is the process's wake-up event and wakeFn its continuation, both
	// shared by every Sleep, SleepUntil and Unblock. A process has at most
	// one pending wake-up (it sleeps only while running, and Unblock
	// schedules only a process parked in Block), so resuming a process
	// allocates neither a timer nor a closure.
	wake   Timer
	wakeFn func()
}

// Name returns the process name given to Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Dead reports whether the process body has returned.
func (p *Proc) Dead() bool { return p.dead }

// Spawn starts a new process whose body begins executing at the current
// virtual time (after already-scheduled events for this instant).
//
// A panic in the body surfaces from the Step (or Run) that resumed the
// process, naming it. A runtime.Goexit in the body — t.FailNow called inside
// a process, say — ends the goroutine driving the engine, not just the
// process.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.wakeFn = func() {
		if !p.dead {
			p.run()
		}
	}
	// The coroutine is created at the first dispatch, not here: a process
	// that never starts holds no goroutine, so nothing keeps what its body
	// references alive once the engine is dropped.
	e.At(e.now, func() {
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			defer func() {
				p.dead = true
				if r := recover(); r != nil {
					panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
				}
			}()
			p.yieldFn = yield
			body(p)
		})
		p.run()
	})
	return p
}

// run switches from the engine to the process coroutine and returns when the
// process yields or its body ends. Only events fired by Step call it, so the
// coroutine is never resumed concurrently.
func (p *Proc) run() {
	e := p.eng
	if e.dispatches++; e.dispatches%schedTurnEvery == 0 {
		runtime.Gosched()
	}
	p.next()
}

// yield switches from the process coroutine back to the engine and returns
// when the process is next resumed.
func (p *Proc) yield() {
	p.yieldFn(struct{}{})
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	p.eng.Schedule(&p.wake, p.eng.deadline(d), p.wakeFn)
	p.yield()
}

// SleepUntil suspends the process until absolute virtual time t. If t is in
// the past it panics, except that t == now is a simple yield to other work
// scheduled for this instant.
func (p *Proc) SleepUntil(t Time) {
	p.eng.Schedule(&p.wake, t, p.wakeFn)
	p.yield()
}

// Block parks the process until another event calls Unblock. The reason is
// reported by BlockedReason for debugging. If Unblock was already called
// since the last Block (a "wake pending" token), Block consumes the token
// and returns immediately; this closes the lost-wakeup race between a
// process deciding to block and the event that would wake it.
func (p *Proc) Block(reason string) {
	if p.wakePending {
		p.wakePending = false
		return
	}
	p.blockedReason = reason
	p.yield()
	p.blockedReason = ""
}

// Unblock makes a process blocked in Block runnable at the current virtual
// time. If the process is not currently blocked, a single wakeup token is
// recorded and consumed by its next Block. Unblock must be called from
// engine context (an event callback or another process), never from the
// blocked process itself.
func (p *Proc) Unblock() {
	if p.dead {
		return
	}
	if p.blockedReason == "" {
		p.wakePending = true
		return
	}
	p.blockedReason = ""
	p.eng.Schedule(&p.wake, p.eng.now, p.wakeFn)
}

// BlockedReason returns the reason string passed to Block if the process is
// currently parked there, and "" otherwise.
func (p *Proc) BlockedReason() string { return p.blockedReason }
