package expt

import (
	"fmt"
	"time"

	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// StripeSweepConfig parameterizes the striped-volume capacity sweep.
type StripeSweepConfig struct {
	Seed          int64
	Duration      sim.Time // playback window per point; 0 = 12 s
	DiskCounts    []int    // member counts to sweep; nil = {1, 2, 4, 8}
	StripeSectors int64    // stripe unit; 0 = the lab default (64 sectors)
}

// StripePoint is one member count's outcome: how many streams the per-disk
// admission test accepted, and how hard each member actually worked while
// they all played.
type StripePoint struct {
	Disks    int
	Admitted int
	Util     []float64 // per-member BusyTime fraction of the playback window
	IOMisses int
}

// StripeSweepResult backs the striping extension: admitted capacity and
// per-member utilization versus member count, everything else held fixed.
type StripeSweepResult struct {
	StripeSectors int64
	Rate          float64 // per-stream bytes/s
	Points        []StripePoint
}

// RunStripeSweep opens identical MPEG2-class streams until admission
// refuses one, then plays the admitted set for the configured window and
// samples each member disk's busy time. The per-disk admission test is the
// capacity limiter: the interval cache is off, control-plane shedding is
// disabled, and the buffer budget is set high enough that disk time — not
// RAM — binds.
func RunStripeSweep(cfg StripeSweepConfig) *StripeSweepResult {
	if cfg.Duration == 0 {
		cfg.Duration = 12 * time.Second
	}
	if len(cfg.DiskCounts) == 0 {
		cfg.DiskCounts = []int{1, 2, 4, 8}
	}
	profile := media.MPEG2()
	info := profile.Generate("/movie", cfg.Duration+8*time.Second)
	res := &StripeSweepResult{Rate: profile.Rate}
	for _, n := range cfg.DiskCounts {
		pr := capacityProbe(lab.Setup{Seed: cfg.Seed, Disks: n, StripeSectors: cfg.StripeSectors},
			info, cfg.Duration, false)
		res.StripeSectors = pr.stripe
		res.Points = append(res.Points, StripePoint{
			Disks: n, Admitted: pr.admitted, Util: pr.util, IOMisses: pr.stats.IODeadlineMiss,
		})
	}
	return res
}

// Table renders the sweep: one row per member count, utilization as
// min–max across members (even numbers mean the stripe is spreading load).
func (r *StripeSweepResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Striped-volume capacity (stripe %d sectors, %s streams)",
			r.StripeSectors, metrics.MBps(r.Rate)),
		"disks", "admitted", "member util min", "member util max", "I/O misses")
	for _, p := range r.Points {
		lo, hi := utilRange(p.Util)
		t.AddRow(p.Disks, p.Admitted,
			fmt.Sprintf("%.0f%%", 100*lo), fmt.Sprintf("%.0f%%", 100*hi), p.IOMisses)
	}
	return t
}
