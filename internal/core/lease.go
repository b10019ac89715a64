package core

import (
	"fmt"

	"repro/internal/rtm"
	"repro/internal/sim"
)

// Session leases. Every Handle carries an implicit lease: any client call —
// Get against the shared buffer, any control RPC, or an explicit Renew —
// renews it (stream.touch). The scheduler's per-cycle scan flags sessions
// whose lease has run out, and the deadline manager reaps them through the
// same eviction path the degradation ladder uses, so a dead client's
// admission capacity, buffer memory and cache pins are all reclaimed within
// LeaseTTL of its last sign of life. Reaping a cache leader hands its
// followers to the icache promotion path like any other leader close.
//
// Next to the lease there is a fast path: the per-session client port. Its
// destruction (the client died and the kernel cleaned up its ports) delivers
// a dead-name notification to the deadline manager, which reaps the session
// immediately instead of waiting out the TTL.

// LeaseExpired is sent to the deadline manager when the scheduler's lease
// scan finds a session whose client has not touched it within LeaseTTL.
type LeaseExpired struct {
	StreamID int
	Cycle    int
	Idle     sim.Time // how long the session had gone untouched
}

// scanLeases flags expired sessions for the reaper. It runs in the
// scheduler once per cycle, which makes the reap time deterministic: the
// first cycle boundary at or after leaseAt+LeaseTTL.
func (s *Server) scanLeases(now sim.Time) {
	ttl := s.cfg.LeaseTTL
	if ttl <= 0 {
		return
	}
	for _, st := range s.streams {
		if st.closed || st.rpcInFlight > 0 || now-st.leaseAt < ttl {
			continue
		}
		idle := now - st.leaseAt
		s.stats.LeasesExpired++
		st.touch(now) // one notification per expiry; the reap lands first
		s.deadlinePort.Send(LeaseExpired{StreamID: st.id, Cycle: s.cycle, Idle: idle})
	}
}

// reapLease is the deadline manager's half of lease expiry: evict the
// session through the standard path.
func (s *Server) reapLease(ev LeaseExpired) {
	st := s.findStream(ev.StreamID)
	if st == nil {
		return // closed in the gap between scan and reap
	}
	s.stats.SessionsReaped++
	s.evict(st, fmt.Sprintf("lease expired after %v idle", ev.Idle))
}

// reapDeadName is the fast path: the client's per-session port was
// destroyed, so the client is gone for certain and the session is reaped
// without waiting out the lease.
func (s *Server) reapDeadName(dn rtm.DeadName) {
	for _, st := range s.streams {
		if st.closed || st.clientPort != dn.Port {
			continue
		}
		s.stats.SessionsReaped++
		s.evict(st, "client port destroyed")
		return
	}
}

// Renew explicitly renews the session lease without any other effect — the
// keep-alive for clients that legitimately go quiet (a paused viewer, a
// recorder waiting for its capture source).
func (h *Handle) Renew(th *rtm.Thread) error {
	return h.op(th, sessionReq{op: opRenew})
}

// Crash simulates the client dying without closing its session: the
// per-session client port is destroyed the way the kernel would reclaim a
// dead task's ports, which delivers the dead-name notification to the
// server. May be called from any engine context. The handle is unusable
// afterwards.
func (h *Handle) Crash() {
	if h.st.clientPort != nil {
		h.st.clientPort.Destroy()
	}
}
