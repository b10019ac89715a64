package core

import (
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// goldenVCRResult captures one fixed-seed run of the VCR workload: the
// delivered digest per stream plus the counters the no-op equivalence
// cares about.
type goldenVCRResult struct {
	digests   [3]uint64 // leader, follower, solo
	lost      [3]int
	stats     Stats
	folCached bool
	soloDR    float64
	soloRev   bool
	soloPause bool
}

// runGoldenVCRScenario plays the three-stream golden workload — cache
// leader, follower, and a solo viewer — with optional mid-play no-op VCR
// operations on the leader and the solo stream, all other knobs and the
// seed held constant.
func runGoldenVCRScenario(t *testing.T, leadOps func(*bed, *Handle) func(*rtm.Thread),
	soloOps func(*bed, *Handle) func(*rtm.Thread)) goldenVCRResult {
	t.Helper()
	shared := media.MPEG1().Generate("/shared", 10*time.Second)
	solo := media.MPEG1().Generate("/solo", 10*time.Second)
	var res goldenVCRResult
	newBed(t, 7, ufs.Options{}, Config{CacheBudget: 16 << 20},
		map[string]*media.StreamInfo{"/shared": shared, "/solo": solo},
		func(b *bed, th *rtm.Thread) {
			lead, err := b.cras.Open(th, shared, "/shared", OpenOptions{})
			if err != nil {
				t.Errorf("open leader: %v", err)
				return
			}
			lead.Start(th)
			th.Sleep(1 * time.Second)
			fol, err := b.cras.Open(th, shared, "/shared", OpenOptions{})
			if err != nil {
				t.Errorf("open follower: %v", err)
				return
			}
			one, err := b.cras.Open(th, solo, "/solo", OpenOptions{})
			if err != nil {
				t.Errorf("open solo: %v", err)
				return
			}
			if !fol.CacheBacked() {
				t.Error("follower not cache-backed at open")
			}
			fol.Start(th)
			one.Start(th)

			var leadDisturb, soloDisturb func(*rtm.Thread)
			if leadOps != nil {
				leadDisturb = leadOps(b, lead)
			}
			if soloOps != nil {
				soloDisturb = soloOps(b, one)
			}
			// disturb runs on the player's own thread just before frame 100,
			// so its position in the delivered sequence is deterministic.
			vcrPlay := func(th *rtm.Thread, h *Handle, disturb func(*rtm.Thread)) (uint64, int) {
				sum := fnv.New64a()
				lost := play(b, th, h, 200, func(f frame) {
					digest(sum, f, false)
					if f.i == 99 && disturb != nil {
						disturb(th)
					}
				})
				return sum.Sum64(), lost
			}
			done := [2]bool{}
			b.k.NewThread("fol-player", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
				res.digests[1], res.lost[1] = vcrPlay(th2, fol, nil)
				done[0] = true
			})
			b.k.NewThread("solo-player", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
				res.digests[2], res.lost[2] = vcrPlay(th2, one, soloDisturb)
				done[1] = true
			})
			res.digests[0], res.lost[0] = vcrPlay(th, lead, leadDisturb)
			for !done[0] || !done[1] {
				th.Sleep(100 * time.Millisecond)
			}
			res.stats = b.cras.Stats()
			res.folCached = fol.CacheBacked()
			res.soloDR = one.DeliveredRate()
			res.soloRev = one.Reversed()
			res.soloPause = one.Paused()
		})
	return res
}

// The VCR no-ops must be invisible to delivery: SetRate to the current
// rate, Seek to the current position, and Pause+Resume at the same
// instant deliver the byte-identical chunk sequence as an undisturbed run
// and trigger none of the re-admission machinery — no detaches, no
// fallbacks, no buffer resets.
//
// The no-op SetRate is issued on the cache LEADER while its follower
// rides the pins: any accidental detach shows up as a fallback. The
// pause/resume/seek triple runs on the solo stream; the seek samples the
// clock while paused, because on a running clock the position moves
// between the client's read and the server's processing — frozen-frame
// scrubbing is also how a real viewer UI issues "seek to here".
func TestGoldenVCRNoOps(t *testing.T) {
	base := runGoldenVCRScenario(t, nil, nil)
	dist := runGoldenVCRScenario(t,
		func(b *bed, h *Handle) func(*rtm.Thread) {
			return func(th *rtm.Thread) {
				if err := h.SetRate(th, 1.0); err != nil {
					t.Errorf("leader no-op SetRate: %v", err)
				}
			}
		},
		func(b *bed, h *Handle) func(*rtm.Thread) {
			return func(th *rtm.Thread) {
				if err := h.SetRate(th, 1.0); err != nil {
					t.Errorf("solo no-op SetRate: %v", err)
				}
				if err := h.Pause(th); err != nil {
					t.Errorf("solo Pause: %v", err)
				}
				if !h.Paused() {
					t.Error("solo not paused after Pause")
				}
				if err := h.Seek(th, h.LogicalNow()); err != nil {
					t.Errorf("solo seek-to-current: %v", err)
				}
				if err := h.Resume(th); err != nil {
					t.Errorf("solo Resume: %v", err)
				}
			}
		})
	if t.Failed() {
		return
	}

	for i, name := range []string{"leader", "follower", "solo"} {
		if base.lost[i] != 0 || dist.lost[i] != 0 {
			t.Errorf("%s lost frames: undisturbed %d, disturbed %d", name, base.lost[i], dist.lost[i])
		}
		if base.digests[i] != dist.digests[i] {
			t.Errorf("%s delivered sequence diverged: undisturbed %016x, disturbed %016x",
				name, base.digests[i], dist.digests[i])
		}
	}
	if !base.folCached || !dist.folCached {
		t.Errorf("follower detached: undisturbed cached=%v, disturbed cached=%v",
			base.folCached, dist.folCached)
	}
	if dist.soloDR != 1 || dist.soloRev || dist.soloPause {
		t.Errorf("solo stream state disturbed: dr=%g reversed=%v paused=%v",
			dist.soloDR, dist.soloRev, dist.soloPause)
	}

	// The no-ops left no re-admission footprint: the side-effect counters
	// match the undisturbed run exactly (all zero in both), and only the
	// VCR op counters record that the calls happened at all.
	type sideEffects struct {
		fallbacks, detaches, rejects, rateChanges, revalidations, refused int
	}
	side := func(s Stats) sideEffects {
		return sideEffects{
			fallbacks:     s.CacheFallbacks + s.MulticastFallbacks,
			detaches:      s.CacheEvictions,
			rejects:       s.AdmissionRejects,
			rateChanges:   s.RateChanges,
			revalidations: s.SeekRevalidations,
			refused:       s.SeeksRefused + s.RateRefused + s.ResumesRefused,
		}
	}
	if side(base.stats) != side(dist.stats) {
		t.Errorf("re-admission side effects diverged: undisturbed %+v, disturbed %+v",
			side(base.stats), side(dist.stats))
	}
	if dist.stats.Pauses != 1 || dist.stats.Resumes != 1 || dist.stats.Seeks != 1 {
		t.Errorf("VCR op counters = pauses %d, resumes %d, seeks %d; want 1, 1, 1",
			dist.stats.Pauses, dist.stats.Resumes, dist.stats.Seeks)
	}
	if dist.stats.RateChanges != 0 {
		t.Errorf("no-op SetRate recorded %d rate changes, want 0", dist.stats.RateChanges)
	}
}

// Pausing mid-rewind freezes the frame; Resume plays forward from the
// rewind head. A paused stream costs zero disk operations while frozen.
func TestVCRPauseFreezesDiskTraffic(t *testing.T) {
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
			th.Sleep(2 * time.Second)
			if err := h.Pause(th); err != nil {
				t.Errorf("pause: %v", err)
			}
			frozen := h.LogicalNow()
			reads := h.StreamStats().ReadsIssued
			// The paused frame must stay resident and the disk must stay
			// silent for the whole paused span.
			th.Sleep(3 * time.Second)
			if got := h.LogicalNow(); got != frozen {
				t.Errorf("clock moved while paused: %v -> %v", frozen, got)
			}
			if !h.Available(frozen - 1) {
				t.Error("paused frame not resident")
			}
			if got := h.StreamStats().ReadsIssued; got != reads {
				t.Errorf("paused stream issued %d disk reads", got-reads)
			}
			if err := h.Resume(th); err != nil {
				t.Errorf("resume: %v", err)
			}
			th.Sleep(1 * time.Second)
			if got := h.LogicalNow(); got <= frozen {
				t.Errorf("clock did not advance after resume: %v", got)
			}
			if got, want := h.LogicalNow(), frozen+sim.Time(1*time.Second); got > want+sim.Time(50*time.Millisecond) {
				t.Errorf("resume jumped the timeline: logical %v, want about %v", got, want)
			}
			h.Close(th)
		})
}
