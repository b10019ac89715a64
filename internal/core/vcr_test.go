package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// Rewind: a negative SetRate delivers the media backwards on a forward
// delivery timeline — descending chunk indexes, ascending delivery
// timestamps — and a positive SetRate exits at the rewind head, like a
// deck coming out of REW.
func TestVCRReversePlayback(t *testing.T) {
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
			if !h.Reversed() {
				t.Error("stream not reversed after negative SetRate")
			}
			// Sample the delivered frames along the rewind: indexes must
			// descend while the delivery clock ascends.
			var indexes []int
			for i := 0; i < 20; i++ {
				th.Sleep(100 * time.Millisecond)
				if c, ok := h.Get(h.LogicalNow() - sim.Time(50*time.Millisecond)); ok {
					if c.Size == 0 {
						t.Errorf("rewind at full delivered rate stamped a zero-size hold (index %d)", c.Index)
					}
					if len(indexes) == 0 || c.Index != indexes[len(indexes)-1] {
						indexes = append(indexes, c.Index)
					}
				}
			}
			if len(indexes) < 3 {
				t.Fatalf("rewind delivered only %d distinct frames", len(indexes))
			}
			for i := 1; i < len(indexes); i++ {
				if indexes[i] >= indexes[i-1] {
					t.Fatalf("rewind indexes not descending: %v", indexes)
				}
			}
			if first := indexes[0]; sim.Time(first)*movie.Chunks[0].Duration > mark+sim.Time(time.Second) {
				t.Errorf("rewind started past the mark: first index %d, mark %v", indexes[0], mark)
			}

			// Play exits at the rewind head: strictly before the mark, and
			// forward delivery resumes from there.
			if err := h.SetRate(th, 1.0); err != nil {
				t.Errorf("SetRate(1) after rewind: %v", err)
				return
			}
			if h.Reversed() {
				t.Error("stream still reversed after positive SetRate")
			}
			head := h.LogicalNow()
			if head >= mark {
				t.Errorf("exit position %v did not rewind below the mark %v", head, mark)
			}
			deadline := b.k.Now() + sim.Time(3*time.Second)
			for !h.Available(head+sim.Time(200*time.Millisecond)) && b.k.Now() < deadline {
				th.Sleep(50 * time.Millisecond)
			}
			if !h.Available(head + sim.Time(200*time.Millisecond)) {
				t.Error("forward delivery never resumed after rewind")
			}
			if got := h.StreamStats().ChunksSkipped; got != 0 {
				t.Errorf("full-rate rewind skipped %d chunks", got)
			}
			h.Close(th)
		})
}

// A fast rewind that hits the start of the media parks there; Play
// resumes forward from position zero.
func TestVCRRewindToStart(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 10*time.Second)
	newBed(t, 7, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			h.Start(th)
			th.Sleep(3 * time.Second)
			if err := h.SetRate(th, -2.0); err != nil {
				t.Errorf("SetRate(-2): %v", err)
				return
			}
			// ~2s of media at 2x: the head reaches the start well within 4s.
			th.Sleep(4 * time.Second)
			if got := h.SessionState().StampPoint; got != 0 {
				t.Errorf("stamp point after rewinding every chunk = %v, want 0", got)
			}
			if err := h.SetRate(th, 1.0); err != nil {
				t.Errorf("SetRate(1): %v", err)
				return
			}
			if got := h.LogicalNow(); got != 0 {
				t.Errorf("exit position after rewind-to-start = %v, want 0", got)
			}
			deadline := b.k.Now() + sim.Time(3*time.Second)
			for !h.Available(sim.Time(100*time.Millisecond)) && b.k.Now() < deadline {
				th.Sleep(50 * time.Millisecond)
			}
			if !h.Available(sim.Time(100 * time.Millisecond)) {
				t.Error("forward delivery never resumed from the start")
			}
			h.Close(th)
		})
}

// A session opened at DeliveredRate 0.5 reads about half the chunks and
// half the bytes, yet its delivery is continuous: every skipped frame is
// covered by a zero-size hold stamped in its place, so Get never goes
// dark. Reduced-rate viewers read alone — they never attach to the
// interval cache.
func TestVCRReducedDeliveredRate(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 10*time.Second)
	newBed(t, 7, ufs.Options{}, Config{CacheBudget: 16 << 20},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			full, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open full: %v", err)
				return
			}
			half, err := b.cras.Open(th, movie, "/m1", OpenOptions{DeliveredRate: 0.5})
			if err != nil {
				t.Errorf("open half: %v", err)
				return
			}
			if got := half.DeliveredRate(); got != 0.5 {
				t.Errorf("DeliveredRate = %g, want 0.5 (no ladder: exact fractions pass through)", got)
			}
			if half.CacheBacked() {
				t.Error("reduced-rate viewer attached to the interval cache")
			}
			full.Start(th)
			half.Start(th)

			info := half.Info()
			const frames = 250
			held, real, lost := 0, 0, 0
			for i := 0; i < frames; i++ {
				if i%30 == 0 {
					full.Renew(th) // only half is played; keep full's lease alive
				}
				want := info.Chunks[i]
				due := half.ClockStartsAt(want.Timestamp)
				if due < 0 {
					lost++
					continue
				}
				if b.k.Now() < due {
					th.SleepUntil(due)
				}
				deadline := due + 3*want.Duration
				got := false
				for b.k.Now() < deadline {
					if c, ok := half.Get(want.Timestamp); ok {
						got = true
						if c.Size == 0 {
							held++
						} else {
							real++
						}
						break
					}
					th.Sleep(2 * time.Millisecond)
				}
				if !got {
					lost++
				}
			}
			if lost != 0 {
				t.Errorf("reduced-rate delivery went dark for %d of %d frames", lost, frames)
			}
			// dr=0.5 retains every other chunk: roughly half held, half real.
			if held < frames/3 || real < frames/3 {
				t.Errorf("frame mix off a half-rate stream: %d real, %d held", real, held)
			}
			hs, fs := half.StreamStats(), full.StreamStats()
			if hs.ChunksSkipped == 0 {
				t.Error("half-rate stream skipped no chunks")
			}
			if hs.BytesScheduled >= fs.BytesScheduled*3/4 {
				t.Errorf("half-rate stream scheduled %d bytes vs full's %d; skipping saved no disk traffic",
					hs.BytesScheduled, fs.BytesScheduled)
			}
			half.Close(th)
			full.Close(th)
		})
}

// Under admission pressure with a rate ladder configured, an open that
// would be refused at full delivered rate is admitted a rung down
// (reduced-rate warm-up), and once capacity frees up the ladder promotes
// it back to full rate, one rung per RecoverCycles.
func TestVCRLadderWarmupOpenAndRecovery(t *testing.T) {
	movies := map[string]*media.StreamInfo{}
	var infos []*media.StreamInfo
	for i := 0; i < 20; i++ {
		path := "/m" + string(rune('a'+i))
		in := media.MPEG1().Generate(path, 6*time.Second)
		movies[path] = in
		infos = append(infos, in)
	}
	// The buffer budget is the binding constraint: B_i for an MPEG1 stream
	// is exactly 200000 bytes, so six full-rate streams fit and a seventh
	// does not — but a rung down (0.75 => B_i 153125) it does. The interval
	// constraint would never let the ladder help here: near disk capacity
	// the required interval is dominated by per-stream seek overhead, which
	// a reduced delivered rate cannot shed.
	newBed(t, 7, ufs.Options{}, Config{RateLadder: []float64{1, 0.75, 0.5}, BufferBudget: 1_370_000},
		movies,
		func(b *bed, th *rtm.Thread) {
			var handles []*Handle
			var reduced *Handle
			for i, in := range infos {
				h, err := b.cras.Open(th, in, in.Name, OpenOptions{})
				if err != nil {
					t.Errorf("open %d refused outright with a ladder configured: %v", i, err)
					break
				}
				if h.DeliveredRate() < 1 {
					reduced = h
					break
				}
				handles = append(handles, h)
			}
			if reduced == nil {
				t.Fatal("no open was admitted at reduced rate before the table ran out")
			}
			if got := b.cras.Stats().OpensReduced; got != 1 {
				t.Errorf("OpensReduced = %d, want 1", got)
			}
			want := reduced.DeliveredRate()
			if want != 0.75 && want != 0.5 {
				t.Errorf("reduced open landed off the ladder: dr = %g", want)
			}

			// Free the capacity: the ladder must walk the survivor back to
			// full rate, one rung per RecoverCycles (8 cycles = 4s each).
			for _, h := range handles {
				h.Close(th)
			}
			sleepRenewing(th, 12*time.Second, reduced)
			if got := reduced.DeliveredRate(); got != 1 {
				t.Errorf("DeliveredRate = %g after recovery window, want 1", got)
			}
			if got := b.cras.Stats().RateStepUps; got == 0 {
				t.Error("no RateStepUps recorded for the recovery")
			}
			reduced.Close(th)
		})
}

// On a saturated server every VCR upgrade refuses honestly: a typed
// *VCRError carrying a retry horizon and wrapping the admission error,
// with the session left exactly as it was. A paused session's disk slot
// is genuinely reusable — a new open takes it, and the pause's own
// resume then gets the same honest refusal until the slot frees again.
func TestVCRTypedRefusalsAndPausedSlotReuse(t *testing.T) {
	movies := map[string]*media.StreamInfo{}
	var infos []*media.StreamInfo
	for i := 0; i < 20; i++ {
		path := "/m" + string(rune('a'+i))
		in := media.MPEG1().Generate(path, 6*time.Second)
		movies[path] = in
		infos = append(infos, in)
	}
	newBed(t, 7, ufs.Options{}, Config{},
		movies,
		func(b *bed, th *rtm.Thread) {
			var handles []*Handle
			for _, in := range infos {
				h, err := b.cras.Open(th, in, in.Name, OpenOptions{})
				if err != nil {
					break
				}
				handles = append(handles, h)
			}
			if len(handles) == len(infos) {
				t.Fatal("server never saturated; cannot exercise refusals")
			}
			n := len(handles)

			// SetRate upgrade on a full server: typed refusal, rate kept.
			// (2x fits — admission is dominated by per-stream seek overhead,
			// not transfer rate, so one doubled stream costs less interval
			// time than a seventeenth stream would. 3x does not fit.)
			err := handles[0].SetRate(th, 3.0)
			var ve *VCRError
			if !errors.As(err, &ve) {
				t.Fatalf("SetRate on a full server returned %v, want *VCRError", err)
			}
			if !errors.Is(err, ErrVCRRefused) {
				t.Error("refusal does not match ErrVCRRefused")
			}
			if ve.RetryAfter <= 0 {
				t.Errorf("refusal carries no retry horizon: %+v", ve)
			}
			var ae *AdmissionError
			if !errors.As(err, &ae) {
				t.Error("refusal does not wrap the admission error")
			}
			if got := handles[0].SessionState().Rate; got != 1 {
				t.Errorf("refused SetRate changed the clock rate to %g", got)
			}
			if got := b.cras.Stats().RateRefused; got != 1 {
				t.Errorf("RateRefused = %d, want 1", got)
			}

			// Pause frees the disk slot: the open that was refused now fits.
			if err := handles[0].Pause(th); err != nil {
				t.Fatalf("pause: %v", err)
			}
			extra, err := b.cras.Open(th, infos[n], infos[n].Name, OpenOptions{})
			if err != nil {
				t.Fatalf("open into a paused slot refused: %v", err)
			}

			// ...and the resume is now the one refused, honestly and typed,
			// with the session still paused and resumable.
			err = handles[0].Resume(th)
			if !errors.As(err, &ve) || !errors.Is(err, ErrVCRRefused) {
				t.Fatalf("resume into a stolen slot returned %v, want *VCRError", err)
			}
			if !handles[0].Paused() {
				t.Error("refused resume unpaused the session")
			}
			if got := b.cras.Stats().ResumesRefused; got != 1 {
				t.Errorf("ResumesRefused = %d, want 1", got)
			}
			if err := extra.Close(th); err != nil {
				t.Errorf("close extra: %v", err)
			}
			if err := handles[0].Resume(th); err != nil {
				t.Errorf("resume after slot freed: %v", err)
			}
			if handles[0].Paused() {
				t.Error("session still paused after successful resume")
			}

			// Rate 0 and paused-stream rate changes refuse without touching
			// anything: Pause and Resume are first-class, not rate hacks.
			if err := handles[1].SetRate(th, 0); !errors.Is(err, ErrVCRRefused) {
				t.Errorf("SetRate(0) = %v, want ErrVCRRefused", err)
			}
			if err := handles[1].Pause(th); err != nil {
				t.Errorf("pause: %v", err)
			}
			if err := handles[1].SetRate(th, 2.0); !errors.Is(err, ErrVCRRefused) {
				t.Errorf("SetRate while paused = %v, want ErrVCRRefused", err)
			}
			if err := handles[1].Resume(th); err != nil {
				t.Errorf("resume: %v", err)
			}

			for _, h := range handles {
				h.Close(th)
			}
		})
}

// Recording sessions are exempt from every frame-dropping mechanism: no
// pause, no reverse, no delivered-rate reduction — a recorder that
// skipped frames would write a corrupt file.
func TestVCRRecordingRefusesFrameDropping(t *testing.T) {
	movie := media.MPEG1().Generate("/rec", 6*time.Second)
	newBed(t, 7, ufs.Options{}, Config{RateLadder: []float64{1, 0.5}},
		map[string]*media.StreamInfo{},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.OpenRecord(th, movie, "/rec", OpenOptions{})
			if err != nil {
				t.Errorf("open record: %v", err)
				return
			}
			if err := h.Pause(th); !errors.Is(err, ErrVCRRefused) {
				t.Errorf("record Pause = %v, want ErrVCRRefused", err)
			}
			if err := h.SetRate(th, -1.0); !errors.Is(err, ErrVCRRefused) {
				t.Errorf("record SetRate(-1) = %v, want ErrVCRRefused", err)
			}
			if got := h.DeliveredRate(); got != 1 {
				t.Errorf("recorder DeliveredRate = %g, want 1", got)
			}
			h.Close(th)
		})
}

// A recorder's fetch horizon is the data captured so far, so its writes
// never run past the captured chunks — not even after a rate change has
// re-shaped the fetch machinery for a lead wide enough to enable
// whole-extent reads on a playback stream.
func TestVCRRecorderSetRateWritesOnlyCapturedData(t *testing.T) {
	plan := media.MPEG1().Generate("/rec", 20*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.OpenRecord(th, plan, "/rec", OpenOptions{})
			if err != nil {
				t.Errorf("OpenRecord: %v", err)
				return
			}
			h.Start(th)
			sleepRenewing(th, 2*time.Second, h)
			if err := h.SetRate(th, 3); err != nil {
				t.Errorf("SetRate(3): %v", err)
				return
			}
			st := h.st
			for i := 0; i < 8; i++ {
				sleepRenewing(th, b.cras.Config().Interval, h)
				pos := st.clock.At(b.k.Now())
				var captured int64
				for _, c := range plan.Chunks {
					if c.Timestamp < pos {
						captured = c.Offset + c.Size
					}
				}
				if limit := alignUp(captured, ufs.BlockSize); st.fetchedUpTo > limit {
					t.Errorf("at %v: writes reach byte %d, %d past the captured data", pos, st.fetchedUpTo, st.fetchedUpTo-limit)
					return
				}
			}
			h.Close(th)
		})
}

// With a rate ladder configured, a stream that burns its Degraded failure
// budget over a bad disk region steps down a delivered-rate rung instead
// of suspending, keeps playing (thinned), and is promoted back to full
// rate after the region passes — the adaptive alternative to the
// suspend/evict ladder.
func TestVCRLadderStepsDownInsteadOfSuspending(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 20*time.Second)
	newBed(t, 13, ufs.Options{}, Config{
		RateLadder: []float64{1, 0.75, 0.5},
		Recovery:   RecoveryPolicy{MaxRetries: 1},
	},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			// Poison ~2s of media a few seconds in, carving one bad region
			// per overlapping extent so the whole span fails regardless of
			// how the file was laid out. The span must outlast the Degraded
			// failure budget (SuspendAfter errors) to force at least one
			// step-down, yet end before the bottom rung's budget burns too —
			// a fault that never stops would rightly suspend even a laddered
			// stream.
			info := h.Info()
			lo, hi := info.Chunks[120].Offset, info.Chunks[180].Offset
			var regions []disk.BadRegion
			for _, e := range h.ExtentMap().Extents {
				s0, s1 := lo, hi
				if s0 < e.FileOff {
					s0 = e.FileOff
				}
				if s1 > e.FileOff+e.Bytes() {
					s1 = e.FileOff + e.Bytes()
				}
				if s0 < s1 {
					regions = append(regions, disk.BadRegion{
						LBA:     e.LBA + (s0-e.FileOff)/512,
						Sectors: (s1 - s0) / 512,
					})
				}
			}
			if len(regions) == 0 {
				t.Fatal("could not carve a bad region from the extent map")
			}
			b.d.SetFaultModel(disk.NewFaultModel(b.e.RNG("faults:sd0"),
				disk.FaultConfig{BadRegions: regions, RTOnly: true}))
			h.Start(th)
			sleepRenewing(th, 9*time.Second, h)
			sv := b.cras.Stats()
			if sv.RateStepDowns == 0 {
				t.Fatal("ladder never stepped down over the bad region")
			}
			if sv.StreamsSuspended != 0 {
				t.Errorf("stream suspended despite the ladder: %d suspensions", sv.StreamsSuspended)
			}
			// Past the region: clean cycles promote back to Healthy and the
			// ladder walks the delivered rate home.
			sleepRenewing(th, 11*time.Second, h)
			if got := h.Health(); got != Healthy {
				t.Errorf("health = %v after the region passed, want Healthy", got)
			}
			if got := h.DeliveredRate(); got != 1 {
				t.Errorf("DeliveredRate = %g after recovery, want 1", got)
			}
			if got := b.cras.Stats().RateStepUps; got == 0 {
				t.Error("no RateStepUps recorded on the way back")
			}
			h.Close(th)
		})
}

// Regression for the pin-leak the gap-contract re-validation fixes: a
// follower seeking inside its leader's pinned interval changes its gap,
// and with it the pin bytes it holds in steady state. Reusing the old
// reservation would leave pinned bytes no reservation accounts for —
// crowding out other paths' pins until their followers miss and fall
// back. The seek must re-price the reservation at the new gap (keeping
// the pins and the zero-disk service), and the cache's committed counter
// must equal the sum of per-stream charges afterwards. A seek outside
// the pinned interval still detaches honestly.
func TestVCRCacheSeekRevalidatesGapContract(t *testing.T) {
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
				t.Fatal("follower not cache-backed at open")
			}
			fol.Start(th)
			sleepRenewing(th, 1*time.Second, lead, fol)

			sweep(t, b.cras, "before seek")
			oldCharge := b.cras.committed[sharePinned]

			// Seek forward to just behind the leader: inside the pinned
			// interval, so the gap contract re-validates and the pins
			// survive. The interval starts at the leader's discard horizon
			// at ATTACH time — chunks the leader discarded before the
			// follower existed were never pinned — so the target must sit
			// near the leader, not at the arithmetic middle of the gap.
			target := lead.LogicalNow() - sim.Time(500*time.Millisecond)
			reads := fol.StreamStats().ReadsIssued
			if err := fol.Seek(th, target); err != nil {
				t.Fatalf("in-interval seek: %v", err)
			}
			if !fol.CacheBacked() {
				t.Fatal("follower detached by an in-interval seek")
			}
			sv := b.cras.Stats()
			if sv.SeekRevalidations != 1 {
				t.Errorf("SeekRevalidations = %d, want 1", sv.SeekRevalidations)
			}
			if sv.CacheFallbacks != 0 {
				t.Errorf("CacheFallbacks = %d after an in-interval seek, want 0", sv.CacheFallbacks)
			}
			sweep(t, b.cras, "after in-interval seek")
			// Seeking toward the leader narrowed the gap: the re-priced
			// reservation must have shrunk with it, or the budget leaks the
			// difference on every such seek.
			if got := b.cras.committed[sharePinned]; got >= oldCharge {
				t.Errorf("narrowed gap did not shrink the pin reservation: committed %d, was %d",
					got, oldCharge)
			}

			// The follower keeps playing from the pins with no disk reads
			// of its own past the revalidated seek.
			sleepRenewing(th, 2*time.Second, lead, fol)
			if !fol.CacheBacked() {
				t.Error("follower fell back after the revalidated seek")
			}
			if got := fol.StreamStats().ReadsIssued; got != reads {
				t.Errorf("follower issued %d disk reads after a pin-preserving seek", got-reads)
			}
			if fol.StreamStats().ChunksFromCache == 0 {
				t.Error("follower served nothing from cache after the seek")
			}

			// A seek outside the pinned interval detaches honestly.
			if err := fol.Seek(th, lead.LogicalNow()+sim.Time(5*time.Second)); err != nil {
				t.Fatalf("out-of-interval seek: %v", err)
			}
			if fol.CacheBacked() {
				t.Error("follower still cache-backed after seeking outside the interval")
			}
			if got := b.cras.Stats().CacheFallbacks; got != 1 {
				t.Errorf("CacheFallbacks = %d after an out-of-interval seek, want 1", got)
			}
			sweep(t, b.cras, "after detach")

			fol.Close(th)
			lead.Close(th)
		})
}
