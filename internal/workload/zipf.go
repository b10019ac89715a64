package workload

import (
	"math"

	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// ZipfPicker draws movie ranks from a Zipf popularity law: rank r (from 0)
// is chosen with probability proportional to 1/(r+1)^alpha. Alpha 0 is the
// uniform law; video-on-demand catalogs are usually measured near 0.7-1.1,
// which is what makes interval caching pay — most viewers pile onto a few
// titles and arrive while those titles are already playing.
type ZipfPicker struct {
	cum []float64 // cumulative, normalized to cum[len-1] == 1
}

// NewZipfPicker builds the law over n ranks.
func NewZipfPicker(n int, alpha float64) *ZipfPicker {
	z := &ZipfPicker{cum: make([]float64, n)}
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), alpha)
		z.cum[r] = sum
	}
	for r := range z.cum {
		z.cum[r] /= sum
	}
	return z
}

// Pick maps a uniform draw in [0,1) to a rank.
func (z *ZipfPicker) Pick(u float64) int {
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ViewerOutcome is one Zipf viewer's fate: which movie it asked for,
// whether admission let it in, whether it rode the interval cache, and its
// delivery record (zero-valued when the viewer was rejected).
type ViewerOutcome struct {
	Movie       int
	At          sim.Time // scripted arrival time
	Admitted    bool
	CacheBacked bool // at open; may drop to disk later (see Stats)
	Multicast   bool // opened as a multicast fan-out member
	PrefixStart bool // first frames backfilled from the pinned prefix
	Stats       PlayerStats
}

// playViewer is the CRASPlayer consumption loop for an already-open handle.
func playViewer(k *rtm.Kernel, th *rtm.Thread, h *core.Handle,
	info *media.StreamInfo, cfg PlayerConfig, stats *PlayerStats) {
	frameDur := frameDuration(info)
	cfg.fill()
	if err := h.Start(th); err != nil {
		return
	}
	frames := len(info.Chunks)
	if cfg.MaxFrames > 0 && cfg.MaxFrames < frames {
		frames = cfg.MaxFrames
	}
	stats.Frames = frames
	begin := sim.Time(-1)
	for i := 0; i < frames; i++ {
		c := info.Chunks[i]
		due := h.ClockStartsAt(c.Timestamp)
		if begin < 0 {
			begin = due
		}
		if due >= 0 && k.Now() < due {
			th.SleepUntil(due)
		}
		// The wait budget anchors to the due time, so a run of lost frames
		// cannot push the player ever further behind the stream's clock (it
		// skips, as a real player would).
		limit := due + giveUpFrames*frameDur
		for {
			if _, ok := h.Get(c.Timestamp); ok {
				stats.record(k.Now(), k.Now()-due, c.Size, frameDur)
				th.Compute(cfg.FrameCPU)
				break
			}
			if k.Now() >= limit {
				stats.Lost++
				stats.LostAt = append(stats.LostAt, i)
				break
			}
			th.Sleep(pollEvery)
		}
		stats.Span = k.Now() - begin
	}
}
