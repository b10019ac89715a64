package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// The typed refusal renders its operation, reason and retry horizon; the
// ladder helpers handle their boundary inputs (full rate has no rung
// above; an empty ladder snaps nothing).
func TestVCRErrorAndLadderHelpers(t *testing.T) {
	e := &VCRError{Op: "seek", RetryAfter: sim.Time(time.Second), Reason: "no room"}
	msg := e.Error()
	for _, want := range []string{"seek", "no room", "1s"} {
		if !strings.Contains(msg, want) {
			t.Errorf("refusal message %q missing %q", msg, want)
		}
	}

	s := &Server{cfg: Config{RateLadder: []float64{1, 0.75, 0.5}}}
	if _, ok := s.ladderAbove(1.0); ok {
		t.Error("ladderAbove(1) found a rung above full rate")
	}
	if up, ok := s.ladderAbove(0.5); !ok || up != 0.75 {
		t.Errorf("ladderAbove(0.5) = %g, %v; want 0.75, true", up, ok)
	}

	bare := &Server{cfg: Config{}}
	if _, ok := bare.ladderBelow(1.0); ok {
		t.Error("empty ladder produced a rung below 1")
	}
	if got := bare.ladderSnap(0.6); got != 0.6 {
		t.Errorf("ladderSnap without a ladder = %g, want passthrough 0.6", got)
	}
}

// Pause and Resume are idempotent on a session already in the target
// state, seek-to-current is an exact no-op, and every VCR operation on a
// closed session answers with an error instead of resurrecting it.
func TestVCRIdempotentAndClosedSessionOps(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 8*time.Second)
	newBed(t, 7, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			h.Start(th)
			if err := h.Resume(th); err != nil {
				t.Errorf("Resume on a playing session = %v, want idempotent nil", err)
			}
			if err := h.Pause(th); err != nil {
				t.Errorf("pause: %v", err)
			}
			if err := h.Pause(th); err != nil {
				t.Errorf("Pause on a paused session = %v, want idempotent nil", err)
			}
			if got := b.cras.Stats().Pauses; got != 1 {
				t.Errorf("Pauses = %d after an idempotent re-pause, want 1", got)
			}
			if err := h.Resume(th); err != nil {
				t.Errorf("resume: %v", err)
			}
			if err := h.Seek(th, h.LogicalNow()); err != nil {
				t.Errorf("seek-to-current = %v, want no-op nil", err)
			}
			if err := h.Close(th); err != nil {
				t.Errorf("close: %v", err)
			}
			if err := h.Pause(th); err == nil {
				t.Error("Pause on a closed session succeeded")
			}
			if err := h.Resume(th); err == nil {
				t.Error("Resume on a closed session succeeded")
			}
			if err := h.Seek(th, 0); err == nil {
				t.Error("Seek on a closed session succeeded")
			}
			if err := h.SetRate(th, 2); err == nil {
				t.Error("SetRate on a closed session succeeded")
			}
		})
}

// Pausing a rewind freezes the picture at the rewind head — the stream
// leaves reverse mode — and Resume plays forward from there, like a deck
// pausing out of REW.
func TestVCRPauseWhileReversed(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 12*time.Second)
	newBed(t, 7, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			h.Start(th)
			th.Sleep(4 * time.Second)
			mark := h.LogicalNow()
			if err := h.SetRate(th, -1.0); err != nil {
				t.Errorf("SetRate(-1): %v", err)
				return
			}
			th.Sleep(time.Second)
			if err := h.Pause(th); err != nil {
				t.Errorf("Pause while reversed: %v", err)
				return
			}
			if h.Reversed() {
				t.Error("session still reversed after Pause")
			}
			if !h.Paused() {
				t.Error("session not paused after Pause")
			}
			if err := h.Resume(th); err != nil {
				t.Errorf("resume: %v", err)
				return
			}
			head := h.LogicalNow()
			if head > mark {
				t.Errorf("pause-out-of-rewind landed at %v, past the mark %v", head, mark)
			}
			// Forward delivery resumes from the frozen head: the clock moves
			// again and frames turn up behind it.
			got := 0
			for i := 0; i < 40; i++ {
				th.Sleep(100 * time.Millisecond)
				if _, ok := h.Get(h.LogicalNow() - sim.Time(50*time.Millisecond)); ok {
					got++
				}
			}
			if h.LogicalNow() <= head {
				t.Error("clock never restarted after pause-out-of-rewind")
			}
			if got == 0 {
				t.Error("forward delivery never resumed after pause-out-of-rewind")
			}
			h.Close(th)
		})
}

// Seeking a rewinding session repositions the rewind head in place: same
// velocity, same admission charge, still reversed. A seek to the current
// head is a no-op, a target past the end of the media parks the head on
// the last chunk, and Play exits at the repositioned head.
func TestVCRSeekWhileReversed(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 12*time.Second)
	newBed(t, 7, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			h.Start(th)
			th.Sleep(4 * time.Second)
			if err := h.SetRate(th, -1.0); err != nil {
				t.Errorf("SetRate(-1): %v", err)
				return
			}
			th.Sleep(500 * time.Millisecond)

			head := h.st.revPos
			if err := h.Seek(th, head); err != nil {
				t.Errorf("seek-to-head while reversed = %v, want no-op nil", err)
			}
			if !h.Reversed() || h.st.revPos != head {
				t.Errorf("no-op seek moved the rewind head: %v -> %v", head, h.st.revPos)
			}

			past := movie.TotalDuration() + sim.Time(time.Second)
			if err := h.Seek(th, past); err != nil {
				t.Errorf("seek past the end while reversed: %v", err)
			}
			if got, want := h.st.nextChunk, len(movie.Chunks)-1; got != want {
				t.Errorf("past-end rewind seek parked on chunk %d, want last chunk %d", got, want)
			}

			target := sim.Time(6 * time.Second)
			if err := h.Seek(th, target); err != nil {
				t.Errorf("reposition while reversed: %v", err)
			}
			if !h.Reversed() {
				t.Error("reposition exited reverse mode")
			}
			if got := h.st.revPos; got != target {
				t.Errorf("rewind head at %v after reposition, want %v", got, target)
			}
			if got, want := h.st.nextChunk, movie.ChunkAt(target); got != want {
				t.Errorf("rewind next chunk %d after reposition, want %d", got, want)
			}

			th.Sleep(time.Second)
			if err := h.SetRate(th, 1.0); err != nil {
				t.Errorf("SetRate(1): %v", err)
				return
			}
			if got := h.LogicalNow(); got > target {
				t.Errorf("exit position %v did not track the repositioned head (target %v)", got, target)
			}
			h.Close(th)
		})
}

// On a saturated server, a cache follower's out-of-interval seek — which
// must detach and re-admit as a plain disk stream — refuses honestly with
// a typed *VCRError and leaves the follower attached at its old position,
// still serving from the leader's pins. Once a slot frees, the same seek
// succeeds and detaches.
func TestVCRSeekRefusalKeepsFollowerAttached(t *testing.T) {
	movies := map[string]*media.StreamInfo{}
	hot := media.MPEG1().Generate("/hot", 12*time.Second)
	movies["/hot"] = hot
	var fillers []*media.StreamInfo
	for i := 0; i < 20; i++ {
		path := fmt.Sprintf("/f%02d", i)
		in := media.MPEG1().Generate(path, 8*time.Second)
		movies[path] = in
		fillers = append(fillers, in)
	}
	newBed(t, 7, ufs.Options{}, Config{CacheBudget: 16 << 20},
		movies,
		func(b *bed, th *rtm.Thread) {
			lead, err := b.cras.Open(th, hot, "/hot", OpenOptions{})
			if err != nil {
				t.Errorf("open leader: %v", err)
				return
			}
			lead.Start(th)
			sleepRenewing(th, 3*time.Second, lead)

			// Fill the remaining disk slots with independent titles.
			var held []*Handle
			saturated := false
			for _, in := range fillers {
				h, err := b.cras.Open(th, in, in.Name, OpenOptions{})
				if err != nil {
					saturated = true
					break
				}
				held = append(held, h)
			}
			if !saturated {
				t.Fatal("server never saturated; cannot exercise the seek refusal")
			}

			// The follower still opens: served from the leader's pins, it
			// charges no disk time.
			fol, err := b.cras.Open(th, hot, "/hot", OpenOptions{})
			if err != nil {
				t.Fatalf("cache-backed open on a disk-saturated server refused: %v", err)
			}
			if !fol.CacheBacked() {
				t.Fatal("follower not cache-backed")
			}
			fol.Start(th)
			all := append([]*Handle{lead, fol}, held...)
			sleepRenewing(th, 500*time.Millisecond, all...)

			target := lead.LogicalNow() + sim.Time(5*time.Second)
			err = fol.Seek(th, target)
			var ve *VCRError
			if !errors.As(err, &ve) || !errors.Is(err, ErrVCRRefused) {
				t.Fatalf("out-of-interval seek on a full server = %v, want *VCRError", err)
			}
			if ve.Op != "seek" || ve.RetryAfter <= 0 {
				t.Errorf("refusal malformed: %+v", ve)
			}
			var ae *AdmissionError
			if !errors.As(err, &ae) {
				t.Error("seek refusal does not wrap the admission error")
			}
			if !fol.CacheBacked() {
				t.Error("refused seek detached the follower")
			}
			if got := b.cras.Stats().SeeksRefused; got != 1 {
				t.Errorf("SeeksRefused = %d, want 1", got)
			}

			// A freed slot lets the same seek through, detaching honestly.
			held[len(held)-1].Close(th)
			held = held[:len(held)-1]
			if err := fol.Seek(th, target); err != nil {
				t.Fatalf("seek after a slot freed: %v", err)
			}
			if fol.CacheBacked() {
				t.Error("follower still cache-backed after the detaching seek")
			}

			fol.Close(th)
			lead.Close(th)
			for _, h := range held {
				h.Close(th)
			}
		})
}

// A 2x scan under memory pressure walks the whole ladder: full rate and
// the 0.75 rung both exceed the buffer budget at the doubled admission
// rate, so the scan is admitted thinned to 0.5 — the rung whose doubled
// rate charges exactly the old buffer. While the pressure holds, the
// recovery pass keeps attempting the promotion each window and is refused;
// dropping back to 1x restores full delivered rate. The bottom rung has
// nowhere further to step down.
func TestVCRSetRateLadderDescentUnderMemoryPressure(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 30*time.Second)
	newBed(t, 7, ufs.Options{}, Config{
		RateLadder: []float64{1, 0.75, 0.5},
		// One full-rate MPEG1 stream (B_i = 200000) fits with a sliver to
		// spare; 2x and 1.5x admission rates do not.
		BufferBudget: 210_000,
	},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			if got := h.DeliveredRate(); got != 1 {
				t.Errorf("DeliveredRate at open = %g, want 1", got)
			}
			h.Start(th)
			th.Sleep(time.Second)
			if err := h.SetRate(th, 2.0); err != nil {
				t.Fatalf("SetRate(2) with a ladder = %v, want thinned admission", err)
			}
			if got := h.DeliveredRate(); got != 0.5 {
				t.Errorf("DeliveredRate = %g after the ladder walk, want 0.5", got)
			}
			if got := h.SessionState().Rate; got != 2 {
				t.Errorf("clock rate = %g, want 2", got)
			}
			if b.cras.ladderStepDown(h.st, b.k.Now()) {
				t.Error("ladderStepDown stepped below the bottom rung")
			}

			// The promotion pass runs every RecoverCycles but the budget
			// still refuses the 0.75 rung at 2x: the stream keeps its rung.
			sleepRenewing(th, 10*time.Second, h)
			if got := h.DeliveredRate(); got != 0.5 {
				t.Errorf("DeliveredRate = %g under sustained pressure, want 0.5", got)
			}
			if got := b.cras.Stats().RateStepUps; got != 0 {
				t.Errorf("RateStepUps = %d while every promotion should refuse, want 0", got)
			}

			if err := h.SetRate(th, 1.0); err != nil {
				t.Fatalf("SetRate(1): %v", err)
			}
			if got := h.DeliveredRate(); got != 1 {
				t.Errorf("DeliveredRate = %g back at 1x, want 1", got)
			}
			h.Close(th)
		})
}

// Pausing a cache leader hands its followers off to plain disk service,
// and pausing a multicast feed breaks up its group — dependents keep
// playing, nobody rides a frozen clock.
func TestVCRPauseDetachesDependents(t *testing.T) {
	t.Run("cache-leader", func(t *testing.T) {
		movie := media.MPEG1().Generate("/m1", 12*time.Second)
		newBed(t, 7, ufs.Options{}, Config{CacheBudget: 16 << 20},
			map[string]*media.StreamInfo{"/m1": movie},
			func(b *bed, th *rtm.Thread) {
				lead, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
				if err != nil {
					t.Errorf("open leader: %v", err)
					return
				}
				lead.Start(th)
				sleepRenewing(th, 3*time.Second, lead)
				fol, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
				if err != nil {
					t.Errorf("open follower: %v", err)
					return
				}
				if !fol.CacheBacked() {
					t.Fatal("follower not cache-backed")
				}
				fol.Start(th)
				if err := lead.Pause(th); err != nil {
					t.Fatalf("pause leader: %v", err)
				}
				if fol.CacheBacked() {
					t.Error("follower still cache-backed behind a paused leader")
				}
				if got := b.cras.Stats().CacheFallbacks; got == 0 {
					t.Error("no CacheFallbacks recorded for the handoff")
				}
				if err := lead.Resume(th); err != nil {
					t.Errorf("resume leader: %v", err)
				}
				fol.Close(th)
				lead.Close(th)
			})
	})

	t.Run("multicast-feed", func(t *testing.T) {
		movie := media.MPEG1().Generate("/hot", 12*time.Second)
		newBed(t, 7, ufs.Options{}, Config{
			BatchWindow:  2 * time.Second,
			PrefixBudget: 16 << 20,
		},
			map[string]*media.StreamInfo{"/hot": movie},
			func(b *bed, th *rtm.Thread) {
				feed, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
				if err != nil {
					t.Errorf("open feed: %v", err)
					return
				}
				feed.Start(th)
				th.Sleep(300 * time.Millisecond)
				var members [2]*Handle
				for i := range members {
					m, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
					if err != nil {
						t.Errorf("open member %d: %v", i, err)
						return
					}
					if !m.MulticastMember() {
						t.Fatalf("member %d did not join the batch group", i)
					}
					m.Start(th)
					members[i] = m
				}
				// Pausing a member detaches just that member...
				if err := members[0].Pause(th); err != nil {
					t.Fatalf("pause member: %v", err)
				}
				if members[0].MulticastMember() {
					t.Error("paused member still rides the fan-out group")
				}
				if !members[1].MulticastMember() {
					t.Error("sibling member detached by another member's pause")
				}
				// ...and pausing the feed breaks up what remains.
				if err := feed.Pause(th); err != nil {
					t.Fatalf("pause feed: %v", err)
				}
				if members[1].MulticastMember() {
					t.Error("member still attached to a paused feed")
				}
				if got := b.cras.Stats().MulticastFallbacks; got < 2 {
					t.Errorf("MulticastFallbacks = %d after both pauses, want >= 2", got)
				}
				for _, m := range members {
					m.Resume(th)
					m.Close(th)
				}
				feed.Resume(th)
				feed.Close(th)
			})
	})
}

// The cluster-facing control probes: the cycle counter is the heartbeat a
// monitor compares, Wedge freezes it (the gray failure: RPCs answer, no
// data moves), Unwedge releases it, and Draining/NotifyDown expose the
// drain state and the dead-name hook.
func TestServerControlProbes(t *testing.T) {
	newBed(t, 7, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{},
		func(b *bed, th *rtm.Thread) {
			if b.cras.Draining() {
				t.Error("server draining before Drain was called")
			}
			b.cras.NotifyDown(b.k.NewPort("watch"))

			c0 := b.cras.CycleCount()
			th.Sleep(1200 * time.Millisecond)
			c1 := b.cras.CycleCount()
			if c1 <= c0 {
				t.Errorf("cycle count stuck at %d on a healthy server", c1)
			}
			b.cras.Wedge()
			th.Sleep(1500 * time.Millisecond)
			c2 := b.cras.CycleCount()
			th.Sleep(1500 * time.Millisecond)
			if got := b.cras.CycleCount(); got != c2 {
				t.Errorf("cycle count advanced %d -> %d while wedged", c2, got)
			}
			b.cras.Unwedge()
			th.Sleep(1500 * time.Millisecond)
			if got := b.cras.CycleCount(); got <= c2 {
				t.Errorf("cycle count stuck at %d after Unwedge", got)
			}
		})
}
