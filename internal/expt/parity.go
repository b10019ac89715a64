package expt

import (
	"fmt"
	"time"

	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// ParitySweepConfig parameterizes the rotating-parity capacity sweep: what
// one member's worth of redundancy costs against plain RAID-0, healthy and
// with a member dead.
type ParitySweepConfig struct {
	Seed          int64
	Duration      sim.Time // playback window per point; 0 = 12 s
	Disks         int      // member count for the multi-disk modes; 0 = 4
	StripeSectors int64    // stripe unit; 0 = the lab default (64 sectors)
}

// ParityPoint is one configuration's outcome. Mode is "single" (one bare
// disk), "raid0" (striped, no redundancy), "parity" (rotating parity,
// all members healthy) or "degraded" (rotating parity, one member killed
// before admission opens).
type ParityPoint struct {
	Mode            string    `json:"mode"`
	Disks           int       `json:"disks"`
	Admitted        int       `json:"admitted"`
	Util            []float64 `json:"util"` // per-member BusyTime fraction of the window
	IOMisses        int       `json:"io_misses"`
	DegradedReads   int64     `json:"degraded_reads"`
	Reconstructions int64     `json:"parity_reconstructions"`
}

// ParitySweepResult backs the disk-death extension's capacity accounting:
// the admitted-stream price of the parity rotation at equal member count,
// and the further price of serving every read by reconstruction.
type ParitySweepResult struct {
	StripeSectors int64         `json:"stripe_sectors"`
	Rate          float64       `json:"stream_rate"` // per-stream bytes/s
	Points        []ParityPoint `json:"points"`
}

// RunParitySweep opens identical MPEG2-class streams until admission
// refuses one, then plays the admitted set and samples member utilization —
// once per mode. The degraded point kills one member (operator fail, no
// detector latency) before any stream opens, so its admitted count is the
// honest degraded capacity, not an over-commitment walked down later.
func RunParitySweep(cfg ParitySweepConfig) *ParitySweepResult {
	if cfg.Duration == 0 {
		cfg.Duration = 12 * time.Second
	}
	if cfg.Disks == 0 {
		cfg.Disks = 4
	}
	profile := media.MPEG2()
	info := profile.Generate("/movie", cfg.Duration+8*time.Second)
	res := &ParitySweepResult{Rate: profile.Rate}

	modes := []struct {
		mode   string
		disks  int
		parity bool
		kill   bool
	}{
		{"single", 1, false, false},
		{"raid0", cfg.Disks, false, false},
		{"parity", cfg.Disks, true, false},
		{"degraded", cfg.Disks, true, true},
	}
	for _, mo := range modes {
		pr := capacityProbe(lab.Setup{
			Seed: cfg.Seed, Disks: mo.disks, StripeSectors: cfg.StripeSectors, Parity: mo.parity,
		}, info, cfg.Duration, mo.kill)
		res.StripeSectors = pr.stripe
		res.Points = append(res.Points, ParityPoint{
			Mode: mo.mode, Disks: mo.disks, Admitted: pr.admitted, Util: pr.util,
			IOMisses:        pr.stats.IODeadlineMiss,
			DegradedReads:   pr.stats.DegradedReads,
			Reconstructions: pr.stats.ParityReconstructions,
		})
	}
	return res
}

// Table renders the sweep: one row per mode. The parity row's admitted
// count against the raid0 row is the redundancy tax; the degraded row's
// against the parity row is the reconstruction tax.
func (r *ParitySweepResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Rotating-parity capacity (stripe %d sectors, %s streams)",
			r.StripeSectors, metrics.MBps(r.Rate)),
		"mode", "disks", "admitted", "member util min", "member util max",
		"I/O misses", "degraded reads", "XOR rows")
	for _, p := range r.Points {
		lo, hi := utilRange(p.Util)
		t.AddRow(p.Mode, p.Disks, p.Admitted,
			fmt.Sprintf("%.0f%%", 100*lo), fmt.Sprintf("%.0f%%", 100*hi),
			p.IOMisses, p.DegradedReads, p.Reconstructions)
	}
	return t
}
