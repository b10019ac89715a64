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
	pc := cfg.Player
	pc.Priority, pc.Quantum = rtm.PrioRTLow, 0 // a population plays in the real-time band
	outs := make([]*ViewerOutcome, cfg.Clients)
	for i := range outs {
		out := arrival(picker, rng, cfg.WaveSpread)
		out.At += sim.Time(i%cfg.Waves) * cfg.WaveGap
		info, path := infos[out.Movie], paths[out.Movie]
		Viewer{Info: info, Config: pc}.Spawn(k, fmt.Sprintf("batch%02d:%s", i, path), out,
			func(th *rtm.Thread) (Session, error) { return srv.Open(th, info, path, core.OpenOptions{}) })
		outs[i] = out
	}
	return outs
}

// arrival draws the head of one viewer's script: a Zipf movie pick, then
// an arrival offset uniform in [0, spread).
func arrival(picker *ZipfPicker, rng *sim.RNG, spread sim.Time) *ViewerOutcome {
	out := &ViewerOutcome{Movie: picker.Pick(rng.Float64()), Stats: new(PlayerStats)}
	if spread > 0 {
		out.At = rng.DurationRange(0, spread)
	}
	return out
}
