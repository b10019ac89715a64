package expt

import (
	"fmt"
	"time"

	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// AccuracyConfig parameterizes the admission-test accuracy studies of
// Figures 8 (1.5 Mb/s streams) and 9 (6 Mb/s streams): the ratio of the
// actual per-interval disk I/O time to the admission test's calculated
// time, averaged and maximized over a run, with and without background
// disk activity.
type AccuracyConfig struct {
	Seed         int64
	Profile      media.CBRProfile
	StreamCounts []int
	Duration     sim.Time
	Label        string
}

// Fig8Config returns the 1.5 Mb/s (MPEG1) configuration.
func Fig8Config() AccuracyConfig {
	return AccuracyConfig{
		Profile:      media.MPEG1(),
		StreamCounts: []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20},
		Label:        "Figure 8: admission accuracy, 1.5 Mb/s streams",
	}
}

// Fig9Config returns the 6 Mb/s (MPEG2) configuration.
func Fig9Config() AccuracyConfig {
	return AccuracyConfig{
		Profile:      media.MPEG2(),
		StreamCounts: []int{1, 2, 3, 4, 5},
		Label:        "Figure 9: admission accuracy, 6 Mb/s streams",
	}
}

// AccuracyPoint is one stream count's measured ratios, in percent.
type AccuracyPoint struct {
	Streams              int
	NoLoadAvg, NoLoadMax float64
	LoadAvg, LoadMax     float64
	Intervals            int
}

// AccuracyResult is one figure's data.
type AccuracyResult struct {
	Config AccuracyConfig
	Points []AccuracyPoint
}

// RunAccuracy regenerates Figure 8 or 9 depending on the configuration.
func RunAccuracy(cfg AccuracyConfig) *AccuracyResult {
	if cfg.Duration == 0 {
		cfg.Duration = 20 * time.Second
	}
	res := &AccuracyResult{Config: cfg}
	for _, n := range cfg.StreamCounts {
		pt := AccuracyPoint{Streams: n}
		for _, load := range []bool{false, true} {
			r := RunPlayback(PlaybackConfig{
				Seed: cfg.Seed, Streams: n, Profile: cfg.Profile,
				Duration: cfg.Duration, UseCRAS: true, Load: load, Force: true,
			})
			avg, max := summarizeAccuracy(r)
			if load {
				pt.LoadAvg, pt.LoadMax = avg, max
			} else {
				pt.NoLoadAvg, pt.NoLoadMax = avg, max
				pt.Intervals = len(r.Accuracy)
			}
		}
		res.Points = append(res.Points, pt)
	}
	return res
}

// summarizeAccuracy averages the per-interval ratios, excluding warmup
// intervals (streams still opening, pipeline prefilling) so the numbers
// describe steady state, as the paper's do.
func summarizeAccuracy(r *PlaybackResult) (avg, max float64) {
	recs := r.Accuracy
	full := 0
	for _, rec := range recs {
		if rec.Streams > full {
			full = rec.Streams
		}
	}
	var sum float64
	n := 0
	for _, rec := range recs {
		if rec.Cycle < 4 || rec.Streams < full {
			continue
		}
		ratio := rec.Ratio()
		sum += ratio
		n++
		if ratio > max {
			max = ratio
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), max
}

// Table renders the figure: ratio of actual to calculated I/O time in
// percent; 100% means the estimate was exact, lower is more pessimistic.
func (r *AccuracyResult) Table() *metrics.Table {
	t := metrics.NewTable(r.Config.Label+" (actual/calculated disk time, %)",
		"streams", "no-load avg", "no-load max", "load avg", "load max", "intervals")
	for _, p := range r.Points {
		t.AddRow(p.Streams,
			fmt.Sprintf("%.0f%%", p.NoLoadAvg), fmt.Sprintf("%.0f%%", p.NoLoadMax),
			fmt.Sprintf("%.0f%%", p.LoadAvg), fmt.Sprintf("%.0f%%", p.LoadMax),
			p.Intervals)
	}
	return t
}
