package workload

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// VCRViewerConfig shapes an interactive population: alongside the plain
// lean-back viewers, a fraction of the audience zaps (channel-surf seeks
// and speed flips) and a fraction scrubs (pause, dwell, resume, instant
// replay). Every interactive viewer runs a pre-drawn script of vcrOps VCR
// operations spaced opFrames of playback apart, so identical (rng,
// config) inputs replay the identical operation sequence.
type VCRViewerConfig struct {
	Clients       int
	Alpha         float64  // Zipf skew of the movie choice
	ArrivalSpread sim.Time // arrivals uniform in [0, spread)
	Player        PlayerConfig
}

// The interactive audience's shape.
const (
	zapFraction   = 0.25                    // of clients that channel-surf
	scrubFraction = 0.25                    // of clients that pause/scrub
	vcrOps        = 3                       // VCR operations per interactive viewer
	opFrames      = 45                      // frames played between operations
	pauseDwell    = 1500 * time.Millisecond // scrubber freeze length
)

// LaunchVCRViewers spawns the interactive Zipf population. Like the other
// Launch helpers, every random draw — movie, arrival, viewer kind, and
// the whole per-viewer operation script — happens up front, so the
// workload is a fixed script regardless of server interleaving. An
// interactive viewer's ops fire every opFrames frame turns; typed
// refusals are counted and play goes on.
func LaunchVCRViewers(k *rtm.Kernel, srv *core.Server, infos []*media.StreamInfo,
	paths []string, rng *sim.RNG, cfg VCRViewerConfig) []*ViewerOutcome {
	picker := NewZipfPicker(len(paths), cfg.Alpha)
	pc := cfg.Player
	pc.Priority, pc.Quantum = rtm.PrioRTLow, 0 // a population plays in the real-time band
	outs := make([]*ViewerOutcome, cfg.Clients)
	for i := range outs {
		out := arrival(picker, rng, cfg.ArrivalSpread)
		info, path := infos[out.Movie], paths[out.Movie]
		out.Kind = "plain"
		switch u := rng.Float64(); {
		case u < zapFraction:
			out.Kind = "zapper"
		case u < zapFraction+scrubFraction:
			out.Kind = "scrubber"
		}
		var script []Op
		if out.Kind != "plain" {
			// Seeks land inside the frames this viewer will actually
			// play, so a jump never lands past the measured window.
			window := float64(sim.Time(pc.frames(info)) * frameDuration(info))
			// Odd ops seek. Zappers hop around the title and flip speeds:
			// 2x skims on even ops, jump cuts anywhere in the first 80%.
			// Scrubbers freeze the frame and replay: pauses on even ops,
			// short seeks back into the first half.
			reach := 0.5
			if out.Kind == "zapper" {
				reach = 0.8
			}
			script = make([]Op, vcrOps)
			for j := range script {
				op := Op{Kind: OpSeek, AfterFrames: (j + 1) * opFrames}
				switch {
				case j%2 == 1:
					op.Target = sim.Time(rng.Float64() * reach * window)
				case out.Kind == "zapper":
					op.Kind, op.Rate = OpSetRate, []float64{2, 1}[j%4/2]
				default:
					op.Kind, op.Dwell = OpPause, pauseDwell
				}
				script[j] = op
			}
		}
		Viewer{Info: info, Config: pc, Script: script}.Spawn(k, fmt.Sprintf("vcr%02d:%s", i, path), out,
			func(th *rtm.Thread) (Session, error) { return srv.Open(th, info, path, core.OpenOptions{}) })
		outs[i] = out
	}
	return outs
}
