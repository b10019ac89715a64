package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

var errMedium = errors.New("medium error")

// faultScenario is one table entry over the structured fault model: a movie
// is opened, the model is installed, playback is measured, and the
// scenario's expectations are checked.
type faultScenario struct {
	name     string
	seed     int64
	secs     time.Duration
	frames   int
	recovery RecoveryPolicy
	// faults builds the fault configuration given the opened stream, so
	// bad regions can be carved from its actual disk layout.
	faults func(h *Handle) disk.FaultConfig
	check  func(t *testing.T, b *bed, h *Handle, got, lost int)
}

func TestFaultScenarios(t *testing.T) {
	scenarios := []faultScenario{
		{
			// Transient medium errors: the budgeted retry recovers every one
			// of them and nothing escalates to a hard failure.
			name: "transient-recovered-by-retry", seed: 11, secs: 8 * time.Second, frames: 230,
			faults: func(*Handle) disk.FaultConfig {
				return disk.FaultConfig{TransientProb: 0.05, RTOnly: true}
			},
			check: func(t *testing.T, b *bed, h *Handle, got, lost int) {
				st := h.StreamStats()
				if st.ReadRetries == 0 {
					t.Error("no retries recorded for transient faults")
				}
				if st.ReadErrors != 0 || st.ChunksFailed != 0 {
					t.Errorf("transient faults escalated to hard failures: %+v", st)
				}
				// A retry costs up to a scheduler cycle, so a few frames
				// around each fault may miss; the stream must not collapse.
				if lost > 20 {
					t.Errorf("lost %d frames; retries did not contain transient faults", lost)
				}
				if h.Health() != Healthy {
					t.Errorf("health = %v, want healthy", h.Health())
				}
				// Per-stream retries aggregate into the server-level stats.
				if sv := b.cras.Stats(); sv.ReadRetries != st.ReadRetries {
					t.Errorf("server ReadRetries = %d, stream recorded %d", sv.ReadRetries, st.ReadRetries)
				}
			},
		},
		{
			// Latency inflation alone: the interval slack and the buffer lead
			// absorb it without a single lost frame.
			name: "latency-absorbed-by-buffer", seed: 12, secs: 8 * time.Second, frames: 230,
			faults: func(*Handle) disk.FaultConfig {
				return disk.FaultConfig{
					LatencyProb: 0.5, LatencyMin: 2 * time.Millisecond, LatencyMax: 15 * time.Millisecond,
					RTOnly: true,
				}
			},
			check: func(t *testing.T, b *bed, h *Handle, got, lost int) {
				if lost != 0 {
					t.Errorf("lost %d frames to latency inflation", lost)
				}
				if b.d.Stats().FaultLatency == 0 {
					t.Error("no latency was actually injected")
				}
				if h.Health() != Healthy {
					t.Errorf("health = %v, want healthy", h.Health())
				}
			},
		},
		{
			// A small persistent bad region: the stream degrades, drops the
			// chunks over the region, keeps its clock, and plays the rest.
			name: "bad-region-degrades-and-drops", seed: 13, secs: 8 * time.Second, frames: 230,
			recovery: RecoveryPolicy{MaxRetries: 1},
			faults: func(h *Handle) disk.FaultConfig {
				ext := h.ExtentMap().Extents
				mid := ext[len(ext)/2]
				return disk.FaultConfig{
					BadRegions: []disk.BadRegion{{LBA: mid.LBA, Sectors: int64(mid.Sectors)}},
					RTOnly:     true,
				}
			},
			check: func(t *testing.T, b *bed, h *Handle, got, lost int) {
				st := h.StreamStats()
				if st.ReadErrors == 0 {
					t.Fatalf("no hard read errors recorded: %+v", st)
				}
				if st.ChunksFailed == 0 {
					t.Error("no chunks dropped for the failed region")
				}
				// Losses stay in the neighbourhood of the poisoned region
				// (the retry and the surrender each cost about a cycle of
				// stamping); the rest of the movie still played.
				if lost > int(st.ChunksFailed)+25 {
					t.Errorf("lost %d frames for %d failed chunks: failure not contained", lost, st.ChunksFailed)
				}
				if got < 100 {
					t.Errorf("only %d frames delivered; stream collapsed after the bad region", got)
				}
				sv := b.cras.Stats()
				if sv.StreamsDegraded == 0 {
					t.Error("stream never entered Degraded on a persistent region")
				}
				if sv.ReadErrors == 0 {
					t.Error("server-level error counter not updated")
				}
			},
		},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			movie := media.MPEG1().Generate("/m1", sc.secs)
			newBed(t, sc.seed, ufs.Options{}, Config{Recovery: sc.recovery},
				map[string]*media.StreamInfo{"/m1": movie},
				func(b *bed, th *rtm.Thread) {
					h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
					if err != nil {
						t.Errorf("Open: %v", err)
						return
					}
					b.d.SetFaultModel(disk.NewFaultModel(b.e.RNG("faults:sd0"), sc.faults(h)))
					h.Start(th)
					var delays []sim.Time
					lost := play(b, th, h, sc.frames, measure(&delays))
					sc.check(t, b, h, len(delays), lost)
				})
		})
	}
}

// Regression: a read whose completion interrupt never arrives must not wedge
// the request scheduler. The watchdog cancels the stalled request, the retry
// re-issues it, and playback resumes.
func TestWatchdogStallDoesNotWedgeScheduler(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 8*time.Second)
	newBed(t, 7, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			b.d.SetFaultModel(disk.NewFaultModel(b.e.RNG("faults:sd0"),
				disk.FaultConfig{StallProb: 1, MaxStalls: 1, RTOnly: true}))
			stalls := 0
			b.cras.OnDeadlineMiss = func(kind string, cycle int, lateBy time.Duration) {
				if kind == "io-stall" {
					stalls++
				}
			}
			h.Start(th)
			var delays []sim.Time
			lost := play(b, th, h, 230, measure(&delays))
			sv := b.cras.Stats()
			if sv.WatchdogCancels == 0 {
				t.Fatal("watchdog never fired for the stalled request")
			}
			if stalls == 0 {
				t.Error("deadline manager was not notified of the stall")
			}
			if b.d.Stalled() {
				t.Fatal("disk still wedged on the stalled request")
			}
			if h.StreamStats().WatchdogCancels != sv.WatchdogCancels {
				t.Errorf("per-stream cancels %d != server %d",
					h.StreamStats().WatchdogCancels, sv.WatchdogCancels)
			}
			// The stall blocks everything for ~2 intervals plus a retry; the
			// frames due in that window are lost, the rest must arrive.
			if len(delays) < 150 {
				t.Fatalf("only %d frames delivered after the stall; scheduler wedged", len(delays))
			}
			if lost > 80 {
				t.Errorf("lost %d frames to a single recovered stall", lost)
			}
			if h.StreamStats().ReadRetries == 0 {
				t.Error("canceled request was never re-issued")
			}
		})
}

// Isolation: a persistent bad-block region under one stream walks that
// stream down the full ladder — degraded, suspended, evicted — while two
// concurrent healthy streams lose zero frames.
func TestFaultIsolationVictimEvictedPeersClean(t *testing.T) {
	victim := media.MPEG1().Generate("/bad", 8*time.Second)
	okA := media.MPEG1().Generate("/oka", 8*time.Second)
	okB := media.MPEG1().Generate("/okb", 8*time.Second)
	newBed(t, 5, ufs.Options{}, Config{BufferBudget: 32 << 20},
		map[string]*media.StreamInfo{"/bad": victim, "/oka": okA, "/okb": okB},
		func(b *bed, th *rtm.Thread) {
			hv, err := b.cras.Open(th, victim, "/bad", OpenOptions{})
			if err != nil {
				t.Errorf("Open victim: %v", err)
				return
			}
			// Poison the victim's layout from its second extent to the end of
			// the file: every fetch past the first ~256 KB fails, forever.
			ext := hv.ExtentMap().Extents
			from, last := ext[1], ext[len(ext)-1]
			b.d.SetFaultModel(disk.NewFaultModel(b.e.RNG("faults:sd0"), disk.FaultConfig{
				BadRegions: []disk.BadRegion{{
					LBA: from.LBA, Sectors: last.LBA + int64(last.Sectors) - from.LBA,
				}},
				RTOnly: true,
			}))
			var ladder []StreamHealth
			b.cras.OnStreamHealth = func(ev StreamHealthEvent) {
				if ev.Path == "/bad" {
					ladder = append(ladder, ev.To)
				}
			}

			type result struct {
				got, lost int
				done      bool
			}
			peers := []struct {
				path string
				info *media.StreamInfo
			}{{"/oka", okA}, {"/okb", okB}}
			results := make([]result, len(peers))
			handles := make([]*Handle, len(peers))
			for i, p := range peers {
				h, err := b.cras.Open(th, p.info, p.path, OpenOptions{})
				if err != nil {
					t.Errorf("Open %s: %v", p.path, err)
					return
				}
				handles[i] = h
			}
			for i := range peers {
				i := i
				b.k.NewThread(fmt.Sprintf("peer%d", i), rtm.PrioRTLow, 0, func(pt *rtm.Thread) {
					handles[i].Start(pt)
					var delays []sim.Time
					lost := play(b, pt, handles[i], 230, measure(&delays))
					results[i] = result{got: len(delays), lost: lost, done: true}
				})
			}
			hv.Start(th)
			play(b, th, hv, 230, nil)
			for w := 0; w < 600 && !(results[0].done && results[1].done); w++ {
				th.Sleep(100 * time.Millisecond)
			}

			for i, r := range results {
				if !r.done {
					t.Fatalf("peer %d never finished: scheduler wedged", i)
				}
				if r.lost != 0 {
					t.Errorf("healthy peer %d lost %d frames while the victim degraded", i, r.lost)
				}
				if r.got != 230 {
					t.Errorf("healthy peer %d delivered %d/230 frames", i, r.got)
				}
			}
			if hv.Health() != Evicted {
				t.Errorf("victim health = %v, want evicted", hv.Health())
			}
			want := []StreamHealth{Degraded, Suspended, Evicted}
			if len(ladder) != len(want) {
				t.Fatalf("victim ladder = %v, want %v", ladder, want)
			}
			for i := range want {
				if ladder[i] != want[i] {
					t.Fatalf("victim ladder = %v, want %v", ladder, want)
				}
			}
			sv := b.cras.Stats()
			if sv.StreamsDegraded != 1 || sv.StreamsSuspended != 1 || sv.StreamsEvicted != 1 {
				t.Errorf("ladder counters = %d/%d/%d, want 1/1/1",
					sv.StreamsDegraded, sv.StreamsSuspended, sv.StreamsEvicted)
			}
			if hv.StreamStats().ChunksFailed == 0 {
				t.Error("victim recorded no failed chunks")
			}
		})
}

// Faults on the record path, injected through the SetFaultInjector escape
// hatch (which must keep composing with the structured model): the writer
// retries and keeps its schedule.
func TestFaultDuringRecording(t *testing.T) {
	plan := media.MPEG1().Generate("/rec", 5*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{},
		func(b *bed, th *rtm.Thread) {
			failures := 1
			b.d.SetFaultInjector(func(r *disk.Request) error {
				if r.RealTime && r.Write && failures > 0 {
					failures--
					return errMedium
				}
				return nil
			})
			h, err := b.cras.OpenRecord(th, plan, "/rec", OpenOptions{})
			if err != nil {
				t.Errorf("OpenRecord: %v", err)
				return
			}
			h.Start(th)
			sleepRenewing(th, b.cras.Config().InitialDelay+plan.TotalDuration()+2*time.Second, h)
			st := h.StreamStats()
			if st.ReadRetries != 1 {
				t.Errorf("retries = %d, want 1", st.ReadRetries)
			}
			if st.ReadErrors != 0 {
				t.Errorf("hard errors = %d, want 0 (transient faults)", st.ReadErrors)
			}
			if st.BytesScheduled < plan.TotalSize() {
				t.Errorf("recording fell short: %d of %d", st.BytesScheduled, plan.TotalSize())
			}
		})
}
