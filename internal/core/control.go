package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/rtm"
	"repro/internal/sim"
)

// Control-plane hardening: overload shedding and graceful drain. The
// request manager is the server's only non-periodic thread, and before this
// layer a flood of opens could occupy it — and the resolver behind it — for
// entire intervals. The shed gate bounds how many control RPCs do real work
// per interval; everything past the budget is answered immediately with a
// typed overload error carrying a retry hint, so a thundering herd costs
// only itself.

var (
	// ErrServerDown reports a client RPC attempted after the signal handler
	// shut the server down: the request port is destroyed, so the call
	// fails instead of blocking on a request manager that is gone.
	ErrServerDown = errors.New("cras: server is down")

	// ErrDraining reports an open refused because the server is draining.
	ErrDraining = errors.New("cras: server is draining")

	// ErrOverloaded is the sentinel errors.Is matches for control-plane
	// shedding; the concrete error is *OverloadError.
	ErrOverloaded = errors.New("cras: control plane overloaded")
)

// OverloadError is the typed shed response. RetryAfter is derived from the
// admission model's view of the control plane: the budget replenishes once
// per interval, so a shed request's turn is the remainder of the current
// window plus one window per budget-sized batch already shed ahead of it.
type OverloadError struct {
	RetryAfter sim.Time
	Reason     string
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("cras: control plane overloaded (%s); retry after %v", e.Reason, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) work.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// costShed is the manager CPU charged to refuse a request without doing its
// work — the cheapness is the point of shedding.
const costShed = 20 * time.Microsecond

// ctlBudgetFloor keeps the control plane live even when force-opens have
// consumed every bit of slack: closes and renewals must always get through,
// and a trickle of opens with them.
const ctlBudgetFloor = 4

// ctlBudget is how many control RPCs may do real work this interval: the
// configured MaxRequestsPerCycle, further capped by the same
// spare-interval-time accounting the recovery engine charges retries
// against — manager work above the disk schedule's slack is work that can
// push an admitted batch past its deadline.
func (s *Server) ctlBudget() int {
	budget := s.cfg.MaxRequestsPerCycle
	if bySpare := int(s.retrySpare() / costManagerOp); bySpare < budget {
		budget = bySpare
	}
	if budget < ctlBudgetFloor {
		budget = ctlBudgetFloor
	}
	return budget
}

// ctlAction is the shed gate's verdict on one control RPC.
type ctlAction int

const (
	ctlAdmit ctlAction = iota // do the real work now
	ctlShed                   // answer with the prepared overload error
	ctlDefer                  // sleep to the window boundary and re-ask
)

// dispatchRequest is the request manager's per-RPC body: the shed gate
// first, then the real work. Shed requests cost costShed instead of
// costManagerOp, which together with deferral is what bounds the manager's
// occupancy per interval.
func (s *Server) dispatchRequest(t *rtm.Thread, req any) any {
	for {
		resp, action := s.shedGate(req)
		switch action {
		case ctlShed:
			t.Compute(costShed)
			return resp
		case ctlDefer:
			t.SleepUntil(s.ctlWindow + s.cfg.Interval)
			continue
		}
		t.Compute(costManagerOp)
		return s.handleRequest(t, req)
	}
}

// shedGate accounts the request against the current interval's control
// budget. Past the budget, new opens — the only request that adds load —
// are shed with the typed overload error; session operations of streams
// that already paid admission (start/stop/seek/setrate) are deferred to
// the next window, so a storm of them is paced rather than refused.
// Closes and renewals always pass: a close frees resources and a renewal
// is the lease heartbeat, and deferring either would turn overload into
// leaks or false reaps. Force opens sit outside the accounting entirely —
// they are the measurement backdoor that already bypasses admission.
func (s *Server) shedGate(req any) (resp any, action ctlAction) {
	if s.cfg.MaxRequestsPerCycle < 0 {
		return nil, ctlAdmit
	}
	now := s.k.Now()
	if win := now - now%s.cfg.Interval; win != s.ctlWindow {
		s.ctlWindow = win
		s.ctlOps, s.ctlShed = 0, 0
	}
	switch r := req.(type) {
	case sessionReq:
		if r.op == opClose || r.op == opRenew {
			s.ctlOps++
			return nil, ctlAdmit
		}
	case openReq:
		if r.force {
			return nil, ctlAdmit
		}
		budget := s.ctlBudget()
		if s.ctlOps < budget {
			s.ctlOps++
			return nil, ctlAdmit
		}
		s.ctlShed++
		s.stats.RequestsShed++
		wait := s.ctlWindow + s.cfg.Interval - now // remainder of this window
		wait += sim.Time((s.ctlShed-1)/budget) * s.cfg.Interval
		return openResp{err: &OverloadError{
			RetryAfter: wait,
			Reason:     fmt.Sprintf("%d control requests this interval", s.ctlOps),
		}}, ctlShed
	}
	if s.ctlOps < s.ctlBudget() {
		s.ctlOps++
		return nil, ctlAdmit
	}
	return nil, ctlDefer
}

// Drain moves the server into graceful drain (usable from any engine
// context): new opens are refused with ErrDraining, active streams run
// down naturally — a closing cache leader hands its followers to the
// icache promotion path as usual — and whatever is still open when the
// grace budget expires is evicted before the old abrupt Shutdown runs. A
// zero or negative grace is an immediate evict-and-shutdown.
func (s *Server) Drain(grace sim.Time) {
	if s.draining || s.stopping {
		return
	}
	s.draining = true
	s.drainAt = s.k.Now() + grace
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining }

// NotifyDown registers n for a dead-name notification on the server's
// request port: when the signal handler destroys the port, n receives a
// single rtm.DeadName message. A cluster monitor uses this to learn of a
// node's death the instant it happens rather than on the next heartbeat.
func (s *Server) NotifyDown(n *rtm.Port) { s.reqPort.NotifyDeadName(n) }

// drainStep runs at the top of each scheduler cycle while draining. It
// reports true when the drain has handed over to Shutdown and the
// scheduler should exit.
func (s *Server) drainStep(now sim.Time) bool {
	if now >= s.drainAt {
		for _, st := range s.streams {
			if st.closed {
				continue
			}
			s.stats.DrainEvictions++
			s.evict(st, "drain deadline")
		}
	}
	if s.ActiveStreams() > 0 {
		return false
	}
	s.Shutdown()
	return true
}
