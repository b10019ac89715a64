package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// BatchedViewerConfig shapes a premiere-style arrival pattern: the
// population arrives in waves — a marquee release, a program-guide
// boundary — with each wave's viewers landing within WaveSpread of the
// wave's start and the waves WaveGap apart. Waves are what the multicast
// batching window feeds on: same-wave viewers of a hot title fall inside
// one BatchWindow and coalesce into one disk-fed group, while later waves
// arrive past the window and depend on the pinned prefix to cover the gap
// back to the in-flight group.
type BatchedViewerConfig struct {
	Clients    int
	Alpha      float64  // Zipf skew of the movie choice
	Waves      int      // arrival bursts; default 1
	WaveGap    sim.Time // time between wave starts
	WaveSpread sim.Time // arrivals uniform in [wave start, +spread)
	Player     PlayerConfig
}

// LaunchBatchedViewers spawns a wave-structured Zipf population. Every
// random draw happens up front, before any thread runs — per viewer, one
// Zipf pick, then one arrival offset inside its wave — so the workload is
// a fixed script: identical (rng, config) inputs replay the identical
// arrival sequence no matter how the server interleaves them. Viewers are
// dealt to waves round-robin, so every wave carries the same Zipf mix and
// wave-to-wave differences are the server's doing, not sampling noise. One
// wave is a plain Zipf audience with arrivals uniform over WaveSpread.
// Outcomes are filled in as viewers finish; callers poll Stats.Done.
func LaunchBatchedViewers(k *rtm.Kernel, srv *core.Server, infos []*media.StreamInfo,
	paths []string, rng *sim.RNG, cfg BatchedViewerConfig) []*ViewerOutcome {
	if cfg.Waves <= 0 {
		cfg.Waves = 1
	}
	picker := NewZipfPicker(len(paths), cfg.Alpha)
	outs := make([]*ViewerOutcome, cfg.Clients)
	for i := range outs {
		outs[i] = &ViewerOutcome{Movie: picker.Pick(rng.Float64())}
		outs[i].At = sim.Time(i%cfg.Waves) * cfg.WaveGap
		if cfg.WaveSpread > 0 {
			outs[i].At += rng.DurationRange(0, cfg.WaveSpread)
		}
	}
	for i := range outs {
		out := outs[i]
		info := infos[out.Movie]
		path := paths[out.Movie]
		k.NewThread(fmt.Sprintf("batch%02d:%s", i, path), rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			defer func() { out.Stats.Done = true }()
			if k.Now() < out.At {
				th.SleepUntil(out.At)
			}
			h, err := srv.Open(th, info, path, core.OpenOptions{})
			if err != nil {
				return // rejected by admission: Admitted stays false
			}
			out.Admitted = true
			out.CacheBacked = h.CacheBacked()
			out.Multicast = h.MulticastMember()
			out.PrefixStart = h.PrefixStarted()
			defer h.Close(th)
			playViewer(k, th, h, info, cfg.Player, &out.Stats)
		})
	}
	return outs
}
