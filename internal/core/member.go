package core

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Member health: the per-member-disk analogue of the stream ladder. A
// parity volume watches its members the way the deadline manager watches
// its streams — hard fragment failures (post-retry errors and watchdog
// cancels) accumulate per member, and a member that keeps producing them
// walks Healthy → Suspect → Dead. A Suspect member keeps its data but
// gets no retries (its reads are served by reconstruction when they fail);
// a Dead member is dropped from placement entirely and every read touching
// it is reconstructed from the survivors. ReplaceMember starts the online
// rebuild that brings a replacement back to Healthy. Non-parity volumes
// have no member ladder: losing a RAID-0 member is not survivable, so the
// stream ladder alone handles it (PR 5 behaviour, unchanged).
type MemberHealth int

const (
	// MemberHealthy members take normal C-SCAN traffic.
	MemberHealthy MemberHealth = iota

	// MemberSuspect members still hold valid data but are not trusted:
	// failed reads on them are never retried — reconstruction serves them
	// — and further failures promote to Dead. A run of clean cycles
	// demotes back to Healthy (the fault was transient).
	MemberSuspect

	// MemberDead members receive no traffic at all; the volume serves
	// every read degraded and writes rely on parity to carry the member's
	// units. Only ReplaceMember (a replacement disk) leaves this state.
	MemberDead

	// MemberRebuilding members are being filled by the background
	// scavenger; reads stay degraded until the rebuild completes.
	MemberRebuilding
)

func (h MemberHealth) String() string {
	switch h {
	case MemberHealthy:
		return "healthy"
	case MemberSuspect:
		return "suspect"
	case MemberDead:
		return "dead"
	case MemberRebuilding:
		return "rebuilding"
	}
	return fmt.Sprintf("MemberHealth(%d)", int(h))
}

// MemberHealthEvent is posted to the deadline manager whenever a member
// moves on its ladder, and is what the OnMemberHealth callback receives.
type MemberHealthEvent struct {
	Member   int
	From, To MemberHealth
	Cycle    int
	Reason   string
}

// memberState is the scheduler's view of one member disk.
type memberState struct {
	health      MemberHealth
	windowErrs  int // hard failures in the sliding window
	cleanCycles int // consecutive clean cycles while Suspect
	cycleErrs   int // hard failures absorbed this cycle
}

// memberOp is an operator action on a member, queued from the caller's
// context and applied at the next cycle edge (the draining precedent:
// written outside the server's threads, observed by the scheduler).
type memberOp struct {
	member  int
	replace bool // false = fail, true = replace
}

// rebuildRow tracks one stripe row's in-flight rebuild I/O.
type rebuildRow struct {
	remaining int
	err       error
}

// rebuildAck is the completion message a rebuild I/O sends through the
// I/O-done port; the scheduler consumes them at the cycle edge.
type rebuildAck struct {
	row int64
	err error
}

// rebuildState is one in-progress member rebuild. Rows are reconstructed
// in order, a spare-paced batch per cycle, each row costing one stripe
// read on every surviving member plus one stripe write on the target —
// all on the normal (non-real-time) queue, so admitted streams' cycles
// are never stolen.
type rebuildState struct {
	member   int
	rows     int64
	next     int64 // next unissued row
	done     int64 // rows rebuilt
	inflight map[int64]*rebuildRow
	attempts map[int64]int
	retry    []int64
}

// rebuild abandons a member after this many failed attempts at one row.
const rebuildRowAttempts = 5

// rebuildRowsCap bounds how many rows one cycle may issue regardless of
// spare time, keeping the normal queue's depth (and the O_other exposure
// of consecutive cycles) small.
const rebuildRowsCap = 16

// MemberHealths returns a snapshot of every member's ladder position
// (nil for a non-parity volume — no member ladder exists).
//
//crasvet:snapshot
func (s *Server) MemberHealths() []MemberHealth {
	if s.members == nil {
		return nil
	}
	out := make([]MemberHealth, len(s.members))
	for i := range s.members {
		out[i] = s.members[i].health
	}
	return out
}

// FailMember force-kills a parity-volume member (the operator's — or a
// fault injector's — override of the detector). Takes effect at the next
// cycle edge. No-op on a non-parity volume or if another member is
// already dead.
func (s *Server) FailMember(i int) {
	s.memberOps = append(s.memberOps, memberOp{member: i})
}

// ReplaceMember announces a replacement disk for a dead member and starts
// the background rebuild. Takes effect at the next cycle edge; no-op
// unless the member is currently Dead.
func (s *Server) ReplaceMember(i int) {
	s.memberOps = append(s.memberOps, memberOp{member: i, replace: true})
}

// memberSick reports whether member d is Suspect or worse — the retry
// policy's signal to stop feeding it.
func (s *Server) memberSick(d int) bool {
	return s.members != nil && d < len(s.members) && s.members[d].health >= MemberSuspect
}

// volShape is the volume's current admission shape.
func (s *Server) volShape() VolumeShape {
	return VolumeShape{
		Disks: s.vol.NumDisks(), Parity: s.vol.Parity(),
		Dead: s.vol.NumDead(), StripeBytes: s.vol.StripeBytes(),
	}
}

// diskCharge is the admission charge of a disk-fed stream whose media
// plays at base bytes/second, at velocity vel and delivered rate dr,
// converted for this volume. The rate is the product (base·vel)·dr in
// that order, so every rate change prices the same float.
func (s *Server) diskCharge(base, vel, dr float64, chunk int64) StreamParams {
	return VolumeParams(s.cfg.Interval, StreamParams{Rate: base * vel * dr, Chunk: chunk}, s.volShape())
}

// noteMemberErr counts a hard fragment failure against its member disk.
// Called from phase 1 for every fragment the retry policy surrendered.
//
//crasvet:hotpath
func (s *Server) noteMemberErr(d int) {
	if s.members == nil || d >= len(s.members) {
		return
	}
	s.members[d].cycleErrs++
}

// setMemberHealth moves a member on its ladder and notifies the deadline
// manager.
func (s *Server) setMemberHealth(i int, to MemberHealth, reason string) {
	from := s.members[i].health
	s.members[i].health = to
	s.deadlinePort.Send(MemberHealthEvent{
		Member: i, From: from, To: to, Cycle: s.cycle, Reason: reason,
	})
}

// noteMember is the deadline manager's half of a member transition.
func (s *Server) noteMember(ev MemberHealthEvent) {
	if s.OnMemberHealth != nil {
		s.OnMemberHealth(ev)
	} else {
		s.k.Engine().Tracef("cras: member %d %s -> %s at cycle %d: %s",
			ev.Member, ev.From, ev.To, ev.Cycle, ev.Reason)
	}
}

// killMember drops a member from placement: the volume marks it dead (all
// reads touching it now reconstruct from survivors), and the open set is
// re-evaluated at the degraded admission charge.
func (s *Server) killMember(i int, now sim.Time, reason string) {
	if s.vol.NumDead() > 0 {
		return // single parity: a second death is not survivable
	}
	s.vol.SetDead(i, true)
	s.stats.MembersDead++
	s.members[i].windowErrs = 0
	s.members[i].cleanCycles = 0
	s.setMemberHealth(i, MemberDead, reason)
	s.reevaluateAdmission(now)
}

// reevaluateAdmission re-runs the admission test at the volume's current
// (degraded) shape. Losing a member turns every logical fetch into
// full-row reads on all survivors; a set admitted healthy can exceed the
// degraded capacity, and the honest response is to suspend the newest
// streams — which walk the existing health ladder (and its eviction
// timeout) — until the remainder fits, instead of letting every stream
// silently miss deadlines.
func (s *Server) reevaluateAdmission(now sim.Time) {
	shape := s.volShape()
	for {
		f := admissionFold{t: s.cfg.Interval, shape: shape}
		for _, st := range s.openStreams() {
			if st.closed || st.health >= Suspended {
				continue
			}
			f.add(st.par)
		}
		if f.members == 0 || s.admit(f).ok() {
			return
		}
		// Newest non-cached stream pays first: oldest-first is the
		// admission order the healthy test granted.
		var victim *stream
		for j := len(s.streams) - 1; j >= s.openFrom; j-- {
			st := s.streams[j]
			if st.closed || st.health >= Suspended || st.rides(sharePinned) {
				continue
			}
			victim = st
			break
		}
		if victim == nil {
			return
		}
		victim.suspendedAt = now
		victim.clock.Stop(now)
		s.setHealth(victim, Suspended, "over-committed in degraded mode")
	}
}

// reconstructFrag reroutes a hard-failed fragment of a parity volume to
// XOR reconstruction: one stripe read per surviving member covering the
// failed fragment's rows, issued into the SAME cycle-edge barrier — the
// tag simply gains fragments and still completes with its slowest one, so
// a member death mid-flight costs latency, never correctness. The extra
// reads were not admission-charged (the member was alive when the batch
// was planned), so each is charged against its member's spare-time budget;
// past that budget the fragment is surrendered and the stream ladder takes
// over. Returns false when reconstruction is not possible or not payable.
//
//crasvet:hotpath
func (s *Server) reconstructFrag(fg *readFrag, budgets []sim.Time) bool {
	if !s.vol.Parity() || fg.tag.s.record || fg.recon {
		return false
	}
	ss := s.vol.StripeBytes() / 512
	r0 := fg.lba / ss
	r1 := (fg.lba + int64(fg.sectors) - 1) / ss
	frags := s.vol.ReconstructFrags(fg.disk, r0, r1)
	if len(frags) == 0 {
		return false
	}
	for _, f := range frags {
		cost := s.cfg.Params.OpCost(int64(f.Count) * 512)
		if cost > budgets[f.Disk] {
			s.stats.RetriesDenied++
			return false
		}
	}
	tag := fg.tag
	s.stats.DegradedReads++
	s.stats.ParityReconstructions += r1 - r0 + 1
	for _, f := range frags {
		budgets[f.Disk] -= s.cfg.Params.OpCost(int64(f.Count) * 512)
		nfg := s.reads.addFrag(tag, f, true)
		tag.fragsLeft++
		tag.cyc.issue(nfg)
		s.submitFrag(nfg)
	}
	return true
}

// memberStep runs the member ladder and the rebuild scavenger once per
// cycle: apply queued operator actions, advance member health from the
// failures phase 1 absorbed, drain rebuild completions, and issue the
// next spare-paced batch of rebuild rows.
//
//crasvet:hotpath
func (s *Server) memberStep(now sim.Time) {
	if len(s.memberOps) > 0 {
		ops := s.memberOps
		s.memberOps = nil
		for _, op := range ops {
			s.applyMemberOp(op, now)
		}
	}
	if s.members == nil {
		return
	}
	s.updateMemberHealth(now)
	s.rebuildStep(now)
}

func (s *Server) applyMemberOp(op memberOp, now sim.Time) {
	if s.members == nil || op.member < 0 || op.member >= len(s.members) {
		return
	}
	m := &s.members[op.member]
	if op.replace {
		if m.health == MemberDead {
			s.startRebuild(op.member)
		}
		return
	}
	if m.health != MemberDead && m.health != MemberRebuilding {
		s.killMember(op.member, now, "operator fail")
	}
}

// updateMemberHealth advances every member's ladder position from the
// hard failures the cycle just absorbed — the same window/age-out shape
// as the stream ladder, with seed-deterministic thresholds from the
// recovery policy.
//
//crasvet:hotpath
func (s *Server) updateMemberHealth(now sim.Time) {
	pol := s.cfg.Recovery
	for i := range s.members {
		m := &s.members[i]
		errs := m.cycleErrs
		m.cycleErrs = 0
		switch m.health {
		case MemberHealthy:
			if errs == 0 {
				if m.windowErrs > 0 {
					m.windowErrs-- // old failures age out
				}
				continue
			}
			m.windowErrs += errs
			if m.windowErrs >= pol.MemberSuspectAfter {
				m.cleanCycles = 0
				s.setMemberHealth(i, MemberSuspect,
					//crasvet:allow hotalloc -- formats once per health transition, not per cycle
					fmt.Sprintf("%d hard failures", m.windowErrs))
			}
		case MemberSuspect:
			if errs > 0 {
				m.windowErrs += errs
				m.cleanCycles = 0
				if m.windowErrs >= pol.MemberDeadAfter && s.vol.NumDead() == 0 {
					//crasvet:allow hotalloc -- formats once per member death, not per cycle
					s.killMember(i, now, fmt.Sprintf("%d hard failures", m.windowErrs))
				}
				continue
			}
			m.cleanCycles++
			if m.cleanCycles >= memberRecoverCycles {
				m.windowErrs = 0
				s.setMemberHealth(i, MemberHealthy,
					//crasvet:allow hotalloc -- formats once per health transition, not per cycle
					fmt.Sprintf("%d clean cycles", m.cleanCycles))
			}
		}
	}
}

// startRebuild begins streaming reconstructed units onto the replacement.
func (s *Server) startRebuild(member int) {
	if s.rebuild != nil {
		return
	}
	//crasvet:allow hotalloc -- allocates once per rebuild start, not per cycle
	s.rebuild = &rebuildState{
		member: member, rows: s.vol.Rows(),
		inflight: make(map[int64]*rebuildRow), //crasvet:allow hotalloc -- same once-per-rebuild setup
		attempts: make(map[int64]int),
	}
	s.setMemberHealth(member, MemberRebuilding, "replacement attached")
}

// rebuildStep drains the cycle's rebuild completions and, when the
// previous batch has fully landed, issues the next one. Pacing: the batch
// size is the tightest live member's spare interval time divided by the
// worst-case cost of one stripe operation — rebuild I/O only ever spends
// time the admission test left over, and a fully committed server makes
// no rebuild progress rather than stealing admitted cycles.
//
//crasvet:hotpath
func (s *Server) rebuildStep(now sim.Time) {
	rb := s.rebuild
	if rb == nil {
		if len(s.rebuildQ) > 0 {
			s.rebuildQ = s.rebuildQ[:0] // acks of an aborted rebuild
		}
		return
	}
	for _, ack := range s.rebuildQ {
		row := rb.inflight[ack.row]
		if row == nil {
			continue
		}
		if ack.err != nil && row.err == nil {
			row.err = ack.err
		}
		row.remaining--
		if row.remaining > 0 {
			continue
		}
		delete(rb.inflight, ack.row)
		if row.err == nil {
			rb.done++
			s.stats.RebuildUnits++
			continue
		}
		rb.attempts[ack.row]++
		if rb.attempts[ack.row] >= rebuildRowAttempts {
			//crasvet:allow hotalloc -- formats once per rebuild abort, not per cycle
			s.abortRebuild(fmt.Sprintf("row %d failed %d times: %v",
				ack.row, rb.attempts[ack.row], row.err))
			s.rebuildQ = s.rebuildQ[:0]
			return
		}
		rb.retry = append(rb.retry, ack.row) //crasvet:allow hotalloc -- rebuild fault path; bounded by rows in flight
	}
	s.rebuildQ = s.rebuildQ[:0]

	if rb.done == rb.rows {
		s.finishRebuild()
		return
	}
	if len(rb.inflight) > 0 {
		return // let the previous batch land before pacing the next
	}

	spares := s.retrySpares()
	spare := sim.Time(0)
	for d, sp := range spares {
		if d == rb.member {
			continue
		}
		if spare == 0 || sp < spare {
			spare = sp
		}
	}
	rowCost := s.cfg.Params.OpCost(s.vol.StripeBytes())
	n := int64(0)
	if rowCost > 0 {
		n = int64(spare / rowCost)
	}
	if n > rebuildRowsCap {
		n = rebuildRowsCap
	}
	for ; n > 0; n-- {
		var row int64
		if len(rb.retry) > 0 {
			row = rb.retry[0]
			rb.retry = rb.retry[1:]
		} else if rb.next < rb.rows {
			row = rb.next
			rb.next++
		} else {
			return
		}
		s.issueRebuildRow(row)
	}
}

// issueRebuildRow reconstructs one stripe row: a stripe-unit read on every
// surviving member and a stripe-unit write on the target, all on the
// normal queue. The content itself is materialized by the deterministic
// offline XOR when the rebuild completes; these requests make the rebuild
// pay its true I/O time on the members' arms.
func (s *Server) issueRebuildRow(row int64) {
	rb := s.rebuild
	ss := s.vol.StripeBytes() / 512
	n := s.vol.NumDisks()
	//crasvet:allow hotalloc -- rebuild scavenger: paced by spare interval time, never multiplied by admitted streams
	rb.inflight[row] = &rebuildRow{remaining: n}
	for d := 0; d < n; d++ {
		//crasvet:allow hotalloc -- same spare-time-paced rebuild path
		req := &disk.Request{
			LBA: row * ss, Count: int(ss),
			Write: d == rb.member, // survivors read, the target writes
			//crasvet:allow hotalloc -- same spare-time-paced rebuild path
			Done: func(r *disk.Request, _ []byte) {
				s.iodonePort.Send(rebuildAck{row: row, err: r.Err})
			},
		}
		s.vol.Disk(d).Submit(req)
	}
}

// abortRebuild gives up on the replacement: the member returns to Dead
// (reads stay degraded) and the operator must attach another disk.
func (s *Server) abortRebuild(reason string) {
	member := s.rebuild.member
	s.rebuild = nil
	s.setMemberHealth(member, MemberDead, "rebuild aborted: "+reason)
}

// finishRebuild materializes the reconstructed member (bit-identical by
// the parity invariant), returns it to placement, and re-admits at the
// healthy charge.
func (s *Server) finishRebuild() {
	member := s.rebuild.member
	rows := s.rebuild.done
	s.rebuild = nil
	s.vol.RebuildMember(member)
	s.vol.SetDead(member, false)
	s.members[member].windowErrs = 0
	s.members[member].cleanCycles = 0
	s.setMemberHealth(member, MemberHealthy,
		//crasvet:allow hotalloc -- formats once per rebuild completion, not per cycle
		fmt.Sprintf("rebuild complete (%d rows)", rows))
}
