package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

const (
	pollEvery      = 10 * time.Millisecond // re-poll after a miss
	giveUpFrames   = 5                     // frame durations a viewer waits before counting a frame lost
	maxOpenRetries = 3                     // retries of a shed open, each after its RetryAfter
	pauseDwell     = 1500 * time.Millisecond
)

// session is what a viewer plays through: a core.Handle on one machine, a
// cluster.Session behind the front door.
type session interface {
	Start(th *rtm.Thread) error
	Close(th *rtm.Thread) error
	Get(logical sim.Time) (core.BufferedChunk, bool)
	ClockStartsAt(logical sim.Time) sim.Time
}

// refusal reports whether err is the server saying no: admission, a shed
// open past its retries, or a cluster that placed the viewer nowhere.
func refusal(err error) bool {
	var ae *core.AdmissionError
	var fe *cluster.FailoverError
	return errors.As(err, &ae) || errors.Is(err, core.ErrOverloaded) || errors.As(err, &fe)
}

// watch is one viewer's whole visit: open (retrying shed opens), start,
// play every scripted frame and VCR operation, close.
func (r *run) watch(th *rtm.Thread, v *viewer) {
	root := r.tr.begin("session", v.id, -1, r.k.Now())
	defer func() { r.tr.end(root, r.k.Now()) }()
	s, h := r.open(th, v, root)
	if s == nil {
		return
	}
	sp := r.tr.begin("start", v.id, root, r.k.Now())
	err := s.Start(th)
	r.tr.end(sp, r.k.Now())
	if err != nil {
		r.violate("viewer %d: start: %v", v.id, err)
		return
	}
	r.play(th, v, s, h, root)
	v.done = true
	if h == nil {
		h = v.sess.Handle()
	}
	st := h.StreamStats()
	v.sharedChunk = st.ChunksFromCache + st.ChunksFromGroup + st.ChunksFromPrefix
	v.stamped = st.ChunksStamped
	sp = r.tr.begin("close", v.id, root, r.k.Now())
	// A session the server already evicted answers "no such stream"; the
	// viewer is leaving either way.
	_ = s.Close(th)
	r.tr.end(sp, r.k.Now())
	v.sess = nil
}

// open issues the viewer's open, retrying a shed one after its RetryAfter.
// It returns the session, plus the core handle on one machine.
func (r *run) open(th *rtm.Thread, v *viewer, root int32) (session, *core.Handle) {
	t := r.p.titles[v.title]
	v.state = opening
	for {
		if v.tries++; v.tries == 1 {
			r.genLate = max(r.genLate, r.k.Now()-(r.readyAt+v.at))
		}
		var s session
		var h *core.Handle
		var err error
		if r.cl != nil {
			sp := r.tr.begin("cluster.open", v.id, root, r.k.Now())
			var cs *cluster.Session
			cs, err = r.cl.Open(th, t.path, core.OpenOptions{})
			r.tr.end(sp, r.k.Now())
			if err == nil {
				s, v.sess, v.node = cs, cs, cs.NodeID()
			}
		} else {
			sp := r.tr.begin("open", v.id, root, r.k.Now())
			h, err = r.ms[0].CRAS.Open(th, t.info, t.path, core.OpenOptions{})
			r.tr.end(sp, r.k.Now())
			s = h
		}
		var oe *core.OverloadError
		switch {
		case err == nil:
			v.state = admitted
			return s, h
		case errors.As(err, &oe) && v.tries <= maxOpenRetries:
			th.Sleep(oe.RetryAfter)
		case refusal(err):
			v.state = refused
			return nil, nil
		default:
			r.violate("viewer %d: open %s: %v", v.id, t.path, err)
			v.state = refused
			return nil, nil
		}
	}
}

// play consumes the viewer's frames in order, running each scripted VCR
// operation when its turn comes. A viewer whose session the server ended
// (a paused session it would not resume, a failover the cluster gave up
// on) leaves, and its remaining scripted frames count as left: frames the
// viewer was owed and did not get.
func (r *run) play(th *rtm.Thread, v *viewer, s session, h *core.Handle, root int32) {
	info := r.p.titles[v.title].info
	idx, op, since := 0, 0, 0
	for n := 0; n < v.frames; n++ {
		if op < len(v.ops) && since >= v.ops[op].after {
			if !r.vcr(th, v, h, v.ops[op], &idx, v.frames-n, root) {
				v.left = v.frames - n
				return
			}
			op, since = op+1, 0
		}
		if v.sess != nil && v.sess.Refused() {
			v.left = v.frames - n
			return
		}
		r.frame(th, v, s, info, idx)
		idx, since = idx+1, since+1
	}
}

// frame waits for one frame's due time, then polls Get every pollEvery
// until the frame arrives or the give-up window passes. Behind the cluster
// the due time is recomputed on every wake, because a failover re-anchors
// the session on the replacement node's clock.
func (r *run) frame(th *rtm.Thread, v *viewer, s session, info *media.StreamInfo, idx int) {
	ch := info.Chunks[idx]
	for {
		now := r.k.Now()
		due := s.ClockStartsAt(ch.Timestamp)
		if due < 0 { // clock stopped: suspended, evicted, or its node is gone
			v.lost++
			th.Sleep(ch.Duration)
			return
		}
		if now < due {
			wait := due - now
			if v.sess != nil && wait > 100*time.Millisecond {
				wait = 100 * time.Millisecond
			}
			th.Sleep(wait)
			continue
		}
		fromNew := v.displaced && v.failoverAt < 0 && v.sess.Gen() > v.gen0 && v.sess.Handle().Available(ch.Timestamp)
		c, ok := r.get(s, ch.Timestamp)
		if ok {
			if c.Index != idx || c.Timestamp != ch.Timestamp || (c.Size != ch.Size && c.Size != 0) {
				r.violate("viewer %d: asked for frame %d (ts %v, %d B), got frame %d (ts %v, %d B)",
					v.id, idx, ch.Timestamp, ch.Size, c.Index, c.Timestamp, c.Size)
			}
			v.got++
			if c.Size == 0 {
				v.holds++
			}
			if v.first < 0 {
				v.first = now
			}
			if fromNew {
				v.failoverAt = now
			}
			r.late.add(int64(now - due))
			return
		}
		if now >= due+giveUpFrames*ch.Duration {
			v.lost++
			return
		}
		th.Sleep(pollEvery)
	}
}

// get is Session.Get, timed in wall clock when traced.
func (r *run) get(s session, ts sim.Time) (core.BufferedChunk, bool) {
	r.getCalls++
	var c core.BufferedChunk
	var ok bool
	if r.tr != nil {
		w := time.Now()
		c, ok = s.Get(ts)
		r.tr.getNS.add(int64(time.Since(w)))
	} else {
		c, ok = s.Get(ts)
	}
	if ok {
		r.getHits++
	}
	return c, ok
}

// vcr runs one scripted operation. A refusal is counted and playback goes
// on; it reports false when the session cannot go on (the server ended it,
// or a paused session could not be resumed twice).
func (r *run) vcr(th *rtm.Thread, v *viewer, h *core.Handle, op vcrOp, idx *int, remaining int, root int32) bool {
	info := h.Info()
	switch op.kind {
	case "seek":
		// Land where the remaining frames still fit in the title.
		to := int(op.arg * float64(max(len(info.Chunks)-remaining, 0)))
		err := r.vcrCall(th, v, "seek", root, func() error { return h.Seek(th, info.Chunks[to].Timestamp) })
		if err == nil {
			*idx = to
		}
		return err == nil || errors.Is(err, core.ErrVCRRefused)
	case "rate":
		err := r.vcrCall(th, v, "rate", root, func() error { return h.SetRate(th, op.arg) })
		return err == nil || errors.Is(err, core.ErrVCRRefused)
	case "pause":
		if err := r.vcrCall(th, v, "pause", root, func() error { return h.Pause(th) }); err != nil {
			return errors.Is(err, core.ErrVCRRefused)
		}
		th.Sleep(pauseDwell)
		for try := 0; ; try++ {
			err := r.vcrCall(th, v, "resume", root, func() error { return h.Resume(th) })
			var ve *core.VCRError
			switch {
			case err == nil:
				return true
			case try == 0 && errors.As(err, &ve):
				th.Sleep(ve.RetryAfter)
			default:
				return false
			}
		}
	}
	panic("crasperf: unknown vcr op " + op.kind)
}

// vcrCall issues one VCR RPC and records its simulated latency.
func (r *run) vcrCall(th *rtm.Thread, v *viewer, name string, root int32, call func() error) error {
	v.vcr++
	t0 := r.k.Now()
	sp := r.tr.begin(name, v.id, root, t0)
	err := call()
	r.tr.end(sp, r.k.Now())
	r.vcrLat.add(int64(r.k.Now() - t0))
	if errors.Is(err, core.ErrVCRRefused) {
		v.vcrRefused++
	}
	return err
}

// record is one constant-rate recorder: back-to-back recordings of
// info's length, each closed once its last interval is on disk and its
// file unlinked after the next recording has opened, so the recorder hands
// its admission slot straight to its next recording.
func (r *run) record(th *rtm.Thread, n int, info *media.StreamInfo) {
	m := r.ms[0]
	unix := ufs.NewClient(m.Unix, th)
	prev := ""
	for i := 0; r.k.Now()+r.p.recordFor+2*time.Second <= r.end; i++ {
		path := fmt.Sprintf("/rec%d.%d", n, i)
		r.recTries++
		h, err := m.CRAS.OpenRecord(th, info, path, core.OpenOptions{})
		if prev != "" {
			if err := unix.Unlink(prev); err != nil {
				r.violate("recorder %d: unlink %s: %v", n, prev, err)
			}
			prev = ""
		}
		if err != nil {
			if !refusal(err) {
				r.violate("recorder %d: open %s: %v", n, path, err)
			}
			r.recRefused++
			th.Sleep(time.Second)
			continue
		}
		if err := h.Start(th); err != nil {
			r.violate("recorder %d: start: %v", n, err)
			return
		}
		// A recorder never reads its buffer; renew the lease until the
		// capture clock has passed the end and the last writes landed.
		for done := h.ClockStartsAt(info.TotalDuration()) + 3*interval; r.k.Now() < done; {
			th.Sleep(time.Second)
			if err := h.Renew(th); err != nil {
				r.violate("recorder %d: renew: %v", n, err)
				return
			}
		}
		st := h.StreamStats()
		r.recPlanned += info.TotalSize()
		r.recDone += min(st.BytesCompleted, info.TotalSize())
		if st.BytesCompleted < info.TotalSize() {
			r.recPartial++
		}
		if err := h.Close(th); err != nil {
			r.violate("recorder %d: close: %v", n, err)
		}
		prev = path
	}
}
