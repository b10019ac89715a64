package core

import (
	"fmt"

	"repro/internal/sim"
)

// StreamHealth is a stream's position on the graceful-degradation ladder.
// The ladder only ever protects the rest of the server: each step trades
// more of the sick stream's service for less interference with its peers.
type StreamHealth int

const (
	// Healthy streams get full service: failed reads are retried while the
	// interval's spare time allows.
	Healthy StreamHealth = iota

	// Degraded streams drop failed chunks immediately — no retries — but
	// keep their logical clock and keep fetching. Playback continues with
	// holes. A run of clean cycles promotes the stream back to Healthy.
	Degraded

	// Suspended streams stop fetching and their logical clock freezes; the
	// buffer keeps whatever had arrived. A stream that stays suspended is
	// evicted after evictAfterCycles intervals.
	Suspended

	// Evicted streams are closed: their admission capacity and buffer
	// memory are released. Terminal.
	Evicted
)

func (h StreamHealth) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Suspended:
		return "suspended"
	case Evicted:
		return "evicted"
	}
	return fmt.Sprintf("StreamHealth(%d)", int(h))
}

// Fixed steps of the recovery engine's ladders.
const (
	// degradeAfter is how many unrecovered (post-retry) read failures move
	// a Healthy stream to Degraded: a healthy stream has none.
	degradeAfter = 1

	// evictAfterCycles is how many intervals a stream may stay Suspended
	// before it is evicted and its resources released.
	evictAfterCycles = 4

	// shedAfter is how many consecutive interval batches must overrun
	// their I/O deadline before the server sheds load by evicting the
	// worst-health stream. Only streams already off the top of the ladder
	// are candidates: all-healthy overruns mean the operator force-opened
	// past admission (or background load spiked) and shedding would not
	// help the streams it is meant to protect.
	shedAfter = 3

	// memberRecoverCycles is how many consecutive clean cycles demote a
	// Suspect parity-volume member back to Healthy (the fault was
	// transient).
	memberRecoverCycles = 8
)

// RecoveryPolicy tunes the deadline manager's recovery engine. Zero values
// select defaults; durations that depend on the interval T are resolved in
// Config.fillDefaults.
type RecoveryPolicy struct {
	// MaxRetries caps how often one read is re-issued. Default 3.
	MaxRetries int

	// WatchdogTimeout is how long a submitted request may go without a
	// completion before the watchdog cancels it. Default 2*Interval: an
	// admitted batch finishes within its interval, so a request twice that
	// old has lost its completion interrupt.
	WatchdogTimeout sim.Time

	// SuspendAfter is how many further failures while Degraded move the
	// stream to Suspended. Default 4.
	SuspendAfter int

	// RecoverCycles is how many consecutive clean cycles promote a
	// Degraded stream back to Healthy. Default 8.
	RecoverCycles int

	// MemberSuspectAfter is how many hard fragment failures (post-retry or
	// watchdog-canceled) within the error window promote a parity-volume
	// member from Healthy to Suspect. Suspect members stop receiving
	// C-SCAN read traffic — their fragments are served by reconstruction —
	// but keep their data. Default 3. Parity volumes only.
	MemberSuspectAfter int

	// MemberDeadAfter is how many hard failures promote a member all the
	// way to Dead: the volume drops it from placement entirely and a
	// rebuild must bring a replacement back. Default 6. Parity only.
	MemberDeadAfter int
}

func (p *RecoveryPolicy) fillDefaults(interval sim.Time) {
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.WatchdogTimeout == 0 {
		p.WatchdogTimeout = 2 * interval
	}
	if p.SuspendAfter == 0 {
		p.SuspendAfter = 4
	}
	if p.RecoverCycles == 0 {
		p.RecoverCycles = 8
	}
	if p.MemberSuspectAfter == 0 {
		p.MemberSuspectAfter = 3
	}
	if p.MemberDeadAfter == 0 {
		p.MemberDeadAfter = 6
	}
}

// StreamHealthEvent is posted to the deadline manager (the miss-notification
// channel) whenever a stream moves on the degradation ladder, and is what
// the OnStreamHealth callback receives.
type StreamHealthEvent struct {
	StreamID int
	Path     string
	From, To StreamHealth
	Cycle    int
	Reason   string
}

// IOStall is sent to the deadline manager when the I/O watchdog cancels a
// request whose completion never arrived; Age is how long the request had
// been outstanding.
type IOStall struct {
	Cycle int
	Age   sim.Time
}

// retrySpares is the admission model's spare interval time, per member
// disk: T minus the calculated worst-case I/O time of the open set's
// steady-state batch on that member (formula (10) over N streams, each
// reading its per-member share of A_i = T*R_i + C_i). Retries may consume
// only this slack, so recovery can never take time the admission test
// promised to healthy streams — and a retry on one member can never take
// time promised to streams on another. An oversubscribed (force-opened)
// server has no slack and gets no retries.
//
// The returned slice is the Server's scratch buffer, refilled on every
// call: use it before the next retrySpares call, do not retain it.
func (s *Server) retrySpares() []sim.Time {
	n := s.vol.NumDisks()
	shape := s.volShape()
	ops, bytes := s.spareOps, s.spareBytes
	for d := 0; d < n; d++ {
		ops[d], bytes[d] = 0, 0
	}
	for _, st := range s.openStreams() {
		if st.closed || st.par.diskFree() {
			continue // shared-path dependents and paused streams issue no steady-state reads
		}
		a := int64(s.cfg.Interval.Seconds()*st.par.Rate) + st.par.Chunk
		if n > 1 {
			// A striped stream's interval fetch rotates over every member;
			// each carries the per-member share the admission test charged —
			// the parity charge (degraded when a member is down) on a parity
			// volume, the round-robin share on plain RAID-0.
			if shape.Parity {
				a = st.par.shapeLoad(s.cfg.Interval, shape)
			} else {
				a = perDiskLoad(a, s.vol.StripeBytes(), n)
			}
		}
		for d := 0; d < n; d++ {
			ops[d]++
			bytes[d] += a
		}
	}
	spares := s.spareTimes
	for d := 0; d < n; d++ {
		// Scratch reuse: a fully used (or overrun) member must land on an
		// explicit zero, not last call's leftover.
		spares[d] = 0
		if s.vol.Dead(d) {
			// A dead member gets no traffic, so it has no spare to spend:
			// nothing may be re-issued onto it.
			continue
		}
		if ops[d] == 0 {
			spares[d] = s.cfg.Interval
			continue
		}
		used := s.cfg.Params.CalculatedIOTime(ops[d], bytes[d])
		if used < s.cfg.Interval {
			spares[d] = s.cfg.Interval - used
		}
	}
	return spares
}

// retrySpare is the scalar spare time the control-plane budget draws on:
// the tightest member's (on one disk, exactly the single-disk spare).
func (s *Server) retrySpare() sim.Time {
	spares := s.retrySpares()
	min := spares[0]
	for _, sp := range spares[1:] {
		if sp < min {
			min = sp
		}
	}
	return min
}

// retryAllowed decides whether a failed fragment is re-issued, charging its
// worst-case cost against its member disk's remaining retry budget.
func (s *Server) retryAllowed(fg *readFrag, budgets []sim.Time) bool {
	if fg.tag.s.health != Healthy {
		return false // degraded and worse drop failed chunks immediately
	}
	if s.memberSick(fg.disk) {
		// The member itself is Suspect or worse: re-issuing onto it would
		// feed the fault. Parity reads reroute to reconstruction instead.
		return false
	}
	if fg.retries >= s.cfg.Recovery.MaxRetries {
		return false
	}
	cost := s.cfg.Params.OpCost(fg.bytes())
	if cost > budgets[fg.disk] {
		s.stats.RetriesDenied++
		return false
	}
	budgets[fg.disk] -= cost
	return true
}

// watchdogScan cancels in-flight fragments whose completion is overdue. A
// canceled request completes with disk.ErrAborted and flows through the
// normal I/O-done path, so the scheduler's bookkeeping (cycle accounting,
// retry policy, health ladder) sees it like any other failure — the cycle
// never wedges waiting for an interrupt that will not come. Each fragment
// is canceled on its own member disk, so one stalled spindle cannot wedge
// the others' queues.
func (s *Server) watchdogScan(now sim.Time, cycle int) {
	var budgets []sim.Time
	for _, fg := range s.inflight {
		age := now - fg.issuedAt
		if age < s.cfg.Recovery.WatchdogTimeout {
			continue
		}
		if fg.req == nil || !s.vol.Disk(fg.disk).Cancel(fg.req) {
			// Not that member's stalled in-service request: it is queued
			// behind one, and canceling the head is what unblocks it.
			continue
		}
		s.stats.WatchdogCancels++
		fg.tag.s.stats.WatchdogCancels++
		s.deadlinePort.Send(IOStall{Cycle: cycle, Age: age})
		// On a parity volume the abort cannot reach the I/O-done queue
		// until this scheduler pass yields, so waiting for it costs a full
		// cycle before reconstruction even starts — with back-to-back
		// stalls that chains past the buffer lead. Count the member error
		// and dispatch the XOR reconstruction now, in the same pass; the
		// abort is then absorbed as a no-op when it lands.
		if s.members != nil && fg.tag.gen == fg.tag.s.gen && !fg.tag.s.closed {
			if budgets == nil {
				budgets = s.retrySpares()
			}
			s.noteMemberErr(fg.disk)
			if s.reconstructFrag(fg, budgets) {
				fg.replaced = true
			}
		}
	}
}

// updateStreamHealth advances every stream's ladder position from the hard
// failures the cycle just absorbed. Runs once per scheduler cycle.
func (s *Server) updateStreamHealth(now sim.Time) {
	pol := s.cfg.Recovery
	for _, st := range s.openStreams() {
		if st.closed {
			continue
		}
		errs := st.cycleErrs
		st.cycleErrs = 0
		switch st.health {
		case Healthy:
			if errs == 0 {
				if st.windowErrs > 0 {
					st.windowErrs-- // old failures age out
				}
				continue
			}
			st.windowErrs += errs
			if st.windowErrs >= degradeAfter {
				st.degradedErrs = 0
				st.cleanCycles = 0
				s.setHealth(st, Degraded, fmt.Sprintf("%d unrecovered read failures", st.windowErrs)) //crasvet:allow hotalloc -- formats once per health transition, not per cycle
			}
		case Degraded:
			if errs > 0 {
				st.degradedErrs += errs
				st.cleanCycles = 0
				if st.degradedErrs >= pol.SuspendAfter {
					// With a delivered-rate ladder configured, step the
					// stream down a rung instead of suspending: less disk
					// load, the viewer keeps (thinned) frames, and clean
					// cycles can promote it back. Only when no rung is
					// left does it suspend.
					if s.ladderStepDown(st, now) {
						continue
					}
					st.suspendedAt = now
					st.clock.Stop(now)
					s.setHealth(st, Suspended, fmt.Sprintf("%d failures while degraded", st.degradedErrs)) //crasvet:allow hotalloc -- formats once per health transition, not per cycle
				}
				continue
			}
			st.cleanCycles++
			if st.cleanCycles >= pol.RecoverCycles {
				st.windowErrs = 0
				s.setHealth(st, Healthy, fmt.Sprintf("%d clean cycles", st.cleanCycles)) //crasvet:allow hotalloc -- formats once per health transition, not per cycle
			}
		case Suspended:
			if now-st.suspendedAt >= evictAfterCycles*s.cfg.Interval {
				s.evict(st, "suspension timed out")
			}
		}
	}
}

// setHealth moves a stream on the ladder and notifies the deadline manager.
func (s *Server) setHealth(st *stream, to StreamHealth, reason string) {
	from := st.health
	st.health = to
	s.deadlinePort.Send(StreamHealthEvent{
		StreamID: st.id, Path: st.name, From: from, To: to, Cycle: s.cycle, Reason: reason,
	})
}

// evict closes a stream from the server side: in-flight reads are
// invalidated, admission capacity and buffer memory are released.
func (s *Server) evict(st *stream, reason string) {
	s.closeStream(st)
	st.gen++
	s.shareOnClose(st, s.k.Now())
	s.setHealth(st, Evicted, reason)
}

// shedWorstStream implements server-wide load shedding: when consecutive
// interval batches overrun their I/O deadline, the aggregate promise to
// every stream is at risk, and the deadline manager sacrifices the stream
// already in the worst health to protect the rest. Returns false when no
// stream is off the top of the ladder (nothing useful to shed).
func (s *Server) shedWorstStream(cycle int) bool {
	var worst *stream
	for _, st := range s.openStreams() {
		if st.closed || st.health == Healthy {
			continue
		}
		if worst == nil ||
			st.health > worst.health ||
			(st.health == worst.health && st.stats.ReadErrors > worst.stats.ReadErrors) {
			worst = st
		}
	}
	if worst == nil {
		return false
	}
	s.stats.ShedEvictions++
	s.evict(worst, fmt.Sprintf("load shed after %d consecutive I/O overruns", shedAfter))
	return true
}
