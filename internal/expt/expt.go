// Package expt regenerates every experimental table and figure in the
// paper's evaluation (Section 3): the CRAS-vs-UFS throughput and delay
// comparisons (Figures 6 and 7), the admission-test accuracy studies
// (Figures 8 and 9), the scheduling-policy comparison (Figure 10), the
// disk seek-curve measurement (Figure 12 and Table 4), plus the Section
// 3.2 problem demonstrations (VBR buffer waste, fragmentation from
// editing) and the Conclusions' constant-rate recording extension.
//
// Each runner builds a fresh simulated machine via internal/lab, drives a
// workload, and returns a structured result with a Table renderer, so
// cmd/crasbench can print the same rows the paper plots.
package expt

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
	"repro/internal/workload"
)

// Policy selects the kernel scheduling configuration.
type Policy int

const (
	// FixedPriority is Real-Time Mach's normal mode: CRAS threads in the
	// real-time band, applications below them, timesharing at the bottom.
	FixedPriority Policy = iota
	// RoundRobin flattens every thread to one priority with a 10 ms
	// quantum — the degraded configuration of Figure 10.
	RoundRobin
)

// rrQuantum is the timesharing quantum for the round-robin configuration —
// 100 ms, the classic Mach/Unix timesharing default. With three CPU-bound
// competitors, a round-robin thread waits up to 300 ms per dispatch, which
// is the delay explosion Figure 10 plots.
const rrQuantum = 100 * time.Millisecond

// PlaybackConfig drives one playback run.
type PlaybackConfig struct {
	Seed         int64
	Streams      int
	Profile      media.CBRProfile
	Duration     sim.Time // measured playback per stream
	Interval     sim.Time // CRAS T; default 500 ms
	InitialDelay sim.Time // default 2*Interval
	UseCRAS      bool
	Load         bool // two background cat readers on the same disk
	Scanner      bool // a raw backup scanner keeping the normal queue deep
	Hogs         int  // CPU-bound competitors
	Policy       Policy
	Force        bool // bypass admission (throughput sweeps)
	FSOpts       ufs.Options

	// PlayerFrameCPU charges the player a per-frame CPU cost (decode and
	// display work). Figure 10 sets it: dispatch latency is what the
	// scheduling policies differ in, and a thread that never computes
	// never waits.
	PlayerFrameCPU sim.Time

	// Ablation switches.
	NoRTQueue bool // CRAS reads on the normal disk queue
	FIFODisk  bool // arrival-order disk service instead of C-SCAN
	MaxRead   int  // override the 256 KB single-read cap

	// Faults, when non-nil, installs a deterministic disk fault model for
	// the whole run. Set RTOnly to keep file-system setup traffic clean.
	Faults *disk.FaultConfig

	// Recovery overrides the server's recovery policy (zero = defaults).
	Recovery core.RecoveryPolicy
}

// PlaybackResult is what one run produced.
type PlaybackResult struct {
	Players    []*workload.PlayerStats
	CRASStats  core.Stats
	DiskStats  disk.Stats
	FaultStats disk.FaultStats // zero unless PlaybackConfig.Faults was set
	MediaRate  float64         // the disk's sustained rate, for normalizing

	// Accuracy is the server's per-interval admission accuracy history
	// (Figures 8 and 9); empty without CRAS.
	Accuracy []core.AccuracyRecord

	admissionRejected int
}

// TotalThroughput sums delivered bytes/second across players.
func (r *PlaybackResult) TotalThroughput() float64 {
	var sum float64
	for _, p := range r.Players {
		sum += p.Throughput()
	}
	return sum
}

// OnTimeThroughput sums on-time bytes/second across players.
func (r *PlaybackResult) OnTimeThroughput() float64 {
	var sum float64
	for _, p := range r.Players {
		sum += p.OnTimeThroughput()
	}
	return sum
}

// LostFrames sums frames never delivered.
func (r *PlaybackResult) LostFrames() int {
	n := 0
	for _, p := range r.Players {
		n += p.Lost
	}
	return n
}

// RunPlayback builds a machine with one movie per stream (plus a bulk file
// for the background readers) and plays all streams simultaneously.
func RunPlayback(cfg PlaybackConfig) *PlaybackResult {
	if cfg.Interval == 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.InitialDelay == 0 {
		cfg.InitialDelay = 2 * cfg.Interval
	}

	cat := newCatalog(cfg.Profile, "/m%02d", cfg.Streams, cfg.Duration+cfg.InitialDelay+time.Second)
	bulk := media.CBRProfile{FrameRate: 30, Rate: 1e6}.Generate("/bulk", 20*time.Second)
	movies := append(cat.movies, lab.Movie{Path: "/bulk", Info: bulk})

	crasCfg := core.Config{
		Interval:     cfg.Interval,
		InitialDelay: cfg.InitialDelay,
		BufferBudget: 64 << 20,
		NoRTQueue:    cfg.NoRTQueue,
		MaxRead:      cfg.MaxRead,
		Recovery:     cfg.Recovery,
	}
	setup := lab.Setup{
		Seed:   cfg.Seed,
		FSOpts: cfg.FSOpts,
		CRAS:   crasCfg,
		NoCRAS: !cfg.UseCRAS,
		Movies: movies,
	}
	playerCfg := workload.PlayerConfig{Priority: rtm.PrioRTLow}
	var q sim.Time // timesharing quantum; 0 = fixed priority
	if cfg.Policy == RoundRobin {
		q = rrQuantum
		setup.UnixQuantum = q
		setup.UnixPrio = rtm.PrioTS
		setup.CRAS.Quantum = q // every CRAS thread at rtm.PrioTS
		playerCfg = workload.PlayerConfig{Priority: rtm.PrioTS, Quantum: q}
	}

	res := &PlaybackResult{Players: make([]*workload.PlayerStats, cfg.Streams)}
	for i := range res.Players {
		res.Players[i] = &workload.PlayerStats{}
	}

	var model *disk.FaultModel
	m := lab.Build(setup, func(m *lab.Machine) {
		if cfg.FIFODisk {
			m.Disk.SetFIFO(true)
		}
		if cfg.Faults != nil {
			model = disk.NewFaultModel(m.Eng.RNG("expt:faults"), *cfg.Faults)
			m.Disk.SetFaultModel(model)
		}
		if cfg.Load {
			workload.BackgroundReader(m.Kernel, m.Unix, "/bulk", rtm.PrioTS, q)
			workload.BackgroundReader(m.Kernel, m.Unix, "/bulk", rtm.PrioTS, q)
		}
		if cfg.Scanner {
			workload.RawScanner(m.Kernel, m.Disk, "backup", 64<<10, 8)
		}
		for i := 0; i < cfg.Hogs; i++ {
			workload.CPUHog(m.Kernel, fmt.Sprintf("hog%d", i), rtm.PrioTS, q, 0)
		}
		if cfg.UseCRAS {
			m.CRAS.OnAccuracy = func(r core.AccuracyRecord) { res.Accuracy = append(res.Accuracy, r) }
		}
		pc := playerCfg
		pc.MaxFrames = framesIn(cfg.Profile, cfg.Duration)
		pc.FrameCPU = cfg.PlayerFrameCPU
		for i, path := range cat.paths {
			if cfg.UseCRAS {
				workload.CRASPlayer(m.Kernel, m.CRAS, cat.infos[i], path,
					core.OpenOptions{Force: cfg.Force}, pc, res.Players[i])
			} else {
				workload.UFSPlayer(m.Kernel, m.Unix, cat.infos[i], path,
					cfg.InitialDelay, pc, res.Players[i])
			}
		}
	})
	// Run until every player finishes or a generous horizon passes (UFS
	// under heavy load can take far longer than the nominal duration).
	runUntilDone(m, 4*cfg.Duration+30*time.Second, &res.Players,
		func(p *workload.PlayerStats) bool { return p.Done })
	if cfg.UseCRAS {
		res.CRASStats = m.CRAS.Stats()
	}
	res.DiskStats = m.Disk.Stats()
	if model != nil {
		res.FaultStats = model.Stats()
	}
	res.MediaRate = disk.MediaRate(m.Disk.Geometry(), m.Disk.Params())
	return res
}
