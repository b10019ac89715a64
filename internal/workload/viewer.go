package workload

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// Session is what a viewer plays through: *core.Handle on one server and
// *cluster.Session behind the cluster front door both satisfy it.
type Session interface {
	Start(th *rtm.Thread) error
	Close(th *rtm.Thread) error
	Get(logical sim.Time) (core.BufferedChunk, bool)
	ClockStartsAt(logical sim.Time) sim.Time
}

// control is the VCR side of a session, which a script's ops drive.
// *core.Handle implements it; a cluster session hands over its current
// handle.
type control interface {
	Seek(th *rtm.Thread, logical sim.Time) error
	SetRate(th *rtm.Thread, rate float64) error
	Pause(th *rtm.Thread) error
	Resume(th *rtm.Thread) error
	LogicalNow() sim.Time
	Crash()
}

func controlOf(s Session) control {
	if cs, ok := s.(*cluster.Session); ok {
		return cs.Handle()
	}
	c, _ := s.(control)
	return c
}

// OpKind names a scripted viewer action.
type OpKind int

const (
	OpSeek      OpKind = iota + 1 // jump to Target; play goes on from the frame there
	OpPause                       // pause for Dwell, then resume (once more after RetryAfter if refused)
	OpSetRate                     // change the playback rate to Rate
	OpSeekStorm                   // Seeks back-to-back seeks; the play index stays put
	OpCrash                       // die without closing
	OpGoSilent                    // stop consuming and renewing, leaving the session open
	OpClose                       // hang up before the last frame
)

// Op is one scripted viewer action. It fires at the first frame turn by
// which the viewer has played AfterFrames frames and the sim clock has
// reached At; ops fire in script order, before the turn's frame.
type Op struct {
	Kind        OpKind
	AfterFrames int
	At          sim.Time
	Target      sim.Time // OpSeek
	Rate        float64  // OpSetRate
	Dwell       sim.Time // OpPause
	Seeks       int      // OpSeekStorm
	Scatter     bool     // OpSeekStorm: hop across the title in eighths instead of seeking in place
	PauseFirst  bool     // OpGoSilent: pause the session on the way out
}

// Cause says why a viewer abandoned the frames it never played.
type Cause int

const (
	CauseNone    Cause = iota // nothing abandoned
	CauseRefused              // the server refused a call play needed: Start, a VCR op, a failover
	CauseCrashed              // the script crashed the client
	CauseSilent               // the script went silent
	CauseClosed               // the script hung up early
)

func (c Cause) String() string {
	return [...]string{"none", "refused", "crashed", "went silent", "closed by script"}[c]
}

// Viewer is one scripted player: the title it plays, how (frame count,
// decode cost, thread priority), and the ops it runs on the way.
type Viewer struct {
	Info   *media.StreamInfo
	Config PlayerConfig
	Script []Op
}

// ViewerOutcome is one launched viewer's fate: which movie it asked for
// and when, whether admission let it in, how its open was served, and its
// frame ledger (zero-valued when the viewer was refused at open).
type ViewerOutcome struct {
	Movie       int
	At          sim.Time // scripted arrival time
	Kind        string   // LaunchVCRViewers: "plain" | "zapper" | "scrubber"
	Admitted    bool
	CacheBacked bool    // rode the interval cache at open; may drop to disk later
	Multicast   bool    // opened as a multicast fan-out member
	PrefixStart bool    // first frames backfilled from the pinned prefix
	ReducedOpen bool    // warm-up admitted below full delivered rate
	FinalRate   float64 // delivered rate when play ended
	Stats       *PlayerStats
}

// The one loss rule. A frame is due when the session's clock reaches its
// timestamp; the viewer waits for it in steps of at most recheck,
// re-reading the clock each step because a failover or a VCR op can move
// the deadline. Once due, it polls the buffer every pollEvery and gives
// the frame up giveUpFrames frame durations after its due time, so a run
// of lost frames cannot push the viewer ever further behind the clock. A
// stopped clock never brings the frame due: it is lost at once and the
// viewer moves on at the frame cadence.
const (
	recheck      = 100 * time.Millisecond
	pollEvery    = 2 * time.Millisecond
	giveUpFrames = 5
)

// Spawn starts the viewer on a thread of its own: it sleeps until out.At,
// opens its session with open, notes how the open was served, plays, and
// hangs up unless the script already ended the session. A refused open
// leaves out.Admitted false. out.Stats.Done is set when the thread ends.
func (v Viewer) Spawn(k *rtm.Kernel, name string, out *ViewerOutcome,
	open func(*rtm.Thread) (Session, error)) *rtm.Thread {
	return k.NewThread(name, v.Config.Priority, v.Config.Quantum, func(th *rtm.Thread) {
		defer func() { out.Stats.Done = true }()
		if k.Now() < out.At {
			th.SleepUntil(out.At)
		}
		s, err := open(th)
		if err != nil {
			return // refused at open: Admitted stays false
		}
		out.Admitted = true
		h, _ := controlOf(s).(*core.Handle)
		if h != nil {
			out.CacheBacked, out.Multicast = h.CacheBacked(), h.MulticastMember()
			out.PrefixStart, out.ReducedOpen = h.PrefixStarted(), h.DeliveredRate() < 1
		}
		v.Play(th, s, out.Stats)
		if h != nil {
			out.FinalRate = h.DeliveredRate()
		}
		// The hang-up may lose the race against an eviction or a drain
		// deadline; that duplicate close is not the viewer's problem.
		if c := out.Stats.Cause; c != CauseCrashed && c != CauseSilent && c != CauseClosed {
			s.Close(th)
		}
	})
}

// Play starts s and plays the viewer's frames through it on th, firing
// the script's ops as their turns come, and records every frame's fate in
// stats. It leaves hanging up to the caller.
func (v Viewer) Play(th *rtm.Thread, s Session, stats *PlayerStats) {
	p := &player{th: th, s: s, v: v, stats: stats,
		frames: v.Config.frames(v.Info), frameDur: frameDuration(v.Info), begin: -1}
	p.refuser, _ = s.(interface{ Refused() bool })
	if err := s.Start(th); err != nil {
		p.fail("start", err)
		p.abandon(p.frames, CauseRefused)
		return
	}
	script := v.Script
	for i := 0; i < p.frames; i++ {
		for len(script) > 0 && script[0].AfterFrames <= stats.Frames && script[0].At <= th.Kernel().Now() {
			next, cause := p.run(script[0], i)
			script = script[1:]
			if cause != CauseNone {
				p.abandon(p.frames-i, cause)
				return
			}
			i = next
		}
		if !p.frame(v.Info.Chunks[i]) {
			p.abandon(p.frames-i, CauseRefused)
			return
		}
	}
}

// player is one Play call's state.
type player struct {
	th       *rtm.Thread
	s        Session
	refuser  interface{ Refused() bool } // cluster sessions: the front door gave up
	v        Viewer
	stats    *PlayerStats
	frames   int
	frameDur sim.Time
	begin    sim.Time // first due time seen; -1 until then
}

// frame plays one frame turn under the loss rule. It reports false when
// the session was refused while the viewer waited.
func (p *player) frame(ch media.Chunk) bool {
	k := p.th.Kernel()
	for {
		if p.refuser != nil && p.refuser.Refused() {
			return false
		}
		due := p.s.ClockStartsAt(ch.Timestamp)
		now := k.Now()
		if due < 0 {
			p.stats.Frames++
			p.stats.Lost++
			p.th.Sleep(ch.Duration)
			break
		}
		if p.begin < 0 {
			p.begin = due
		}
		if now < due {
			p.th.Sleep(min(due-now, recheck))
			continue
		}
		if got, ok := p.s.Get(ch.Timestamp); ok {
			if got.Timestamp > ch.Timestamp || ch.Timestamp >= got.Timestamp+got.Duration {
				p.stats.Stale++ // the buffer handed out a chunk that does not cover the asked time
			}
			p.stats.Frames++
			p.stats.record(now, now-due, ch.Size, p.frameDur)
			p.th.Compute(p.v.Config.FrameCPU)
			break
		}
		if now >= due+giveUpFrames*p.frameDur {
			p.stats.Frames++
			p.stats.Lost++
			break
		}
		p.th.Sleep(pollEvery)
	}
	p.stats.Span = k.Now() - p.begin
	return true
}

// run fires op at frame turn i. It returns the frame index play goes on
// from, or the cause that ended the session.
func (p *player) run(op Op, i int) (int, Cause) {
	c := controlOf(p.s)
	p.stats.Ops++
	switch op.Kind {
	case OpSeek:
		if err := c.Seek(p.th, op.Target); err != nil {
			return i, p.refused("seek", err)
		}
		if next := int(op.Target / p.frameDur); next < p.frames {
			return next, CauseNone
		}
	case OpPause:
		if err := c.Pause(p.th); err != nil {
			return i, p.refused("pause", err)
		}
		p.th.Sleep(op.Dwell)
		if err := c.Resume(p.th); err != nil {
			if cause := p.refused("resume", err); cause != CauseNone {
				return i, cause
			}
			// The paused slot could not be re-admitted: wait out the
			// quoted hint once and give up for good on a second no.
			var vcr *core.VCRError
			if errors.As(err, &vcr) && vcr.RetryAfter > 0 {
				p.th.Sleep(vcr.RetryAfter)
			}
			if err := c.Resume(p.th); err != nil {
				p.fail("resume", err)
				return i, CauseRefused
			}
		}
	case OpSetRate:
		if err := c.SetRate(p.th, op.Rate); err != nil {
			return i, p.refused("set rate", err)
		}
	case OpSeekStorm:
		for n := 0; n < op.Seeks; n++ {
			target := c.LogicalNow()
			if op.Scatter {
				target = p.v.Info.TotalDuration() * sim.Time(n%8) / 8
			}
			if err := c.Seek(p.th, target); err != nil {
				if cause := p.refused("seek", err); cause != CauseNone {
					return i, cause
				}
			}
		}
	case OpCrash:
		// The kernel reclaims the dead client's ports; the server must
		// find out through the dead-name notification.
		c.Crash()
		return i, CauseCrashed
	case OpGoSilent:
		if op.PauseFirst {
			if err := c.Pause(p.th); err != nil {
				p.fail("pause", err)
			}
		}
		return i, CauseSilent
	case OpClose:
		if err := p.s.Close(p.th); err != nil {
			p.fail("close", err)
		}
		return i, CauseClosed
	}
	return i, CauseNone
}

// refused sorts a VCR call's error: a typed refusal is counted and play
// goes on; any other error (the server evicted the session) ends it.
func (p *player) refused(call string, err error) Cause {
	if errors.Is(err, core.ErrVCRRefused) {
		p.stats.Refusals++
		return CauseNone
	}
	p.fail(call, err)
	return CauseRefused
}

func (p *player) fail(call string, err error) {
	if p.stats.Err == nil {
		p.stats.Err = fmt.Errorf("%s: %w", call, err)
	}
}

// abandon ends play with n frames owed but never played.
func (p *player) abandon(n int, cause Cause) {
	p.stats.Frames += n
	p.stats.Abandoned += n
	p.stats.Cause = cause
}
