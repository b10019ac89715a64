// Command crasbench regenerates the paper's evaluation: every table and
// figure of Section 3, plus the Section 3.2 problem demonstrations and the
// constant-rate recording extension. Results print as plain-text tables
// whose rows correspond to the paper's plotted series.
//
// Usage:
//
//	crasbench -all                # everything (several minutes of CPU)
//	crasbench -fig 6              # one figure (6, 7, 8, 9, 10, 12)
//	crasbench -table 4            # Table 4
//	crasbench -extra vbr          # vbr | frag | record | delaysweep | faults | cache | overload | stripe | parity | multicast | cluster | vcr
//	crasbench -fig 6 -quick       # smaller sweeps for a fast look
//	crasbench -fig 6 -delay 3s    # the Section 3.1 longer-initial-delay run
//	crasbench -all -jsondir .     # also snapshot the parity, multicast, cluster and VCR sweeps
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/expt"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "figure to regenerate (6, 7, 8, 9, 10, 12)")
		table    = flag.Int("table", 0, "table to regenerate (4)")
		extra    = flag.String("extra", "", "extra experiment: vbr | frag | record | delaysweep | interval | faults | cache | overload | stripe | parity | multicast | cluster | vcr")
		jsonDir  = flag.String("jsondir", "", "also write the parity, multicast, cluster and VCR sweep results as BENCH_{parity,multicast,cluster,vcr}.json into this directory")
		all      = flag.Bool("all", false, "run everything")
		quick    = flag.Bool("quick", false, "smaller sweeps and shorter runs")
		seed     = flag.Int64("seed", 1, "simulation seed")
		duration = flag.Duration("duration", 0, "override run duration (0 = experiment default)")
		delay    = flag.Duration("delay", time.Second, "initial delay for figure 6")
	)
	flag.Parse()

	ran := false
	if *all || *fig == 6 {
		runFig6(*seed, *quick, *duration, *delay)
		ran = true
	}
	if *all || *fig == 7 {
		cfg := expt.Fig7Config{Seed: *seed, Duration: *duration}
		if *quick && *duration == 0 {
			cfg.Duration = 12 * time.Second
		}
		fmt.Println(expt.RunFig7(cfg).Table())
		ran = true
	}
	if *all || *fig == 8 {
		runAccuracy(expt.Fig8Config(), *seed, *quick, *duration)
		ran = true
	}
	if *all || *fig == 9 {
		runAccuracy(expt.Fig9Config(), *seed, *quick, *duration)
		ran = true
	}
	if *all || *fig == 10 {
		cfg := expt.Fig10Config{Seed: *seed, Duration: *duration}
		if *quick && *duration == 0 {
			cfg.Duration = 10 * time.Second
		}
		fmt.Println(expt.RunFig10(cfg).Table())
		ran = true
	}
	if *all || *fig == 12 {
		fmt.Println(expt.RunFig12(*seed).Table())
		ran = true
	}
	if *all || *table == 4 {
		fmt.Println(expt.RunTable4(*seed).Table())
		ran = true
	}
	if *all || *extra == "vbr" {
		fmt.Println(expt.RunVBR(*seed, *duration).Table())
		ran = true
	}
	if *all || *extra == "frag" {
		fmt.Println(expt.RunFragmentation(*seed, 0, *duration).Table())
		ran = true
	}
	if *all || *extra == "record" {
		fmt.Println(expt.RunRecord(*seed, 0, *duration).Table())
		ran = true
	}
	if *all || *extra == "delaysweep" {
		fmt.Println(expt.RunDelaySweep(*seed, 0, *duration, nil).Table())
		ran = true
	}
	if *all || *extra == "interval" {
		fmt.Println(expt.RunIntervalSweep(*seed, nil, *duration).Table())
		ran = true
	}
	if *all || *extra == "faults" {
		cfg := expt.FaultSweepConfig{Seed: *seed, Duration: *duration}
		if *quick && *duration == 0 {
			cfg.Duration = 10 * time.Second
			cfg.Probs = []float64{0, 0.02, 0.10}
		}
		fmt.Println(expt.RunFaultSweep(cfg).Table())
		ran = true
	}
	if *all || *extra == "cache" {
		cfg := expt.CacheSweepConfig{Seed: *seed, Duration: *duration}
		if *quick && *duration == 0 {
			cfg.Duration = 10 * time.Second
			cfg.Budgets = []int64{0, 16 << 20}
		}
		fmt.Println(expt.RunCacheSweep(cfg).Table())
		ran = true
	}
	if *all || *extra == "overload" {
		cfg := expt.OverloadSweepConfig{Seed: *seed, Duration: *duration}
		if *quick && *duration == 0 {
			cfg.Duration = 8 * time.Second
			cfg.Rates = []float64{4, 64}
		}
		fmt.Println(expt.RunOverloadSweep(cfg).Table())
		ran = true
	}
	if *all || *extra == "stripe" {
		cfg := expt.StripeSweepConfig{Seed: *seed, Duration: *duration}
		if *quick && *duration == 0 {
			cfg.Duration = 8 * time.Second
		}
		fmt.Println(expt.RunStripeSweep(cfg).Table())
		ran = true
	}
	if *all || *extra == "parity" {
		cfg := expt.ParitySweepConfig{Seed: *seed, Duration: *duration}
		if *quick && *duration == 0 {
			cfg.Duration = 8 * time.Second
		}
		res := expt.RunParitySweep(cfg)
		fmt.Println(res.Table())
		writeSnapshot(*jsonDir, "parity", res)
		ran = true
	}
	if *all || *extra == "multicast" {
		cfg := expt.MulticastSweepConfig{Seed: *seed, Duration: *duration}
		if *quick && *duration == 0 {
			cfg.Duration = 10 * time.Second
		}
		res := expt.RunMulticastSweep(cfg)
		fmt.Println(res.Table())
		writeSnapshot(*jsonDir, "multicast", res)
		ran = true
	}
	if *all || *extra == "cluster" {
		cfg := expt.ClusterSweepConfig{Seed: *seed, Duration: *duration}
		if *quick && *duration == 0 {
			cfg.Duration = 8 * time.Second
		}
		res := expt.RunClusterSweep(cfg)
		fmt.Println(res.Table())
		writeSnapshot(*jsonDir, "cluster", res)
		ran = true
	}
	if *all || *extra == "vcr" {
		cfg := expt.VCRSweepConfig{Seed: *seed, Duration: *duration}
		if *quick && *duration == 0 {
			cfg.Duration = 8 * time.Second
		}
		res := expt.RunVCRSweep(cfg)
		fmt.Println(res.Table())
		writeSnapshot(*jsonDir, "vcr", res)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// writeSnapshot writes one sweep result as indented JSON to
// dir/BENCH_<name>.json; an empty dir writes nothing.
func writeSnapshot(dir, name string, res any) {
	if dir == "" {
		return
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crasbench:", err)
		os.Exit(1)
	}
}

func runFig6(seed int64, quick bool, duration, delay time.Duration) {
	cfg := expt.Fig6Config{Seed: seed, Duration: duration, InitialDelay: delay}
	if quick {
		cfg.StreamCounts = []int{1, 5, 9, 13, 17, 21, 25}
		if duration == 0 {
			cfg.Duration = 15 * time.Second
		}
	}
	res := expt.RunFig6(cfg)
	fmt.Println(res.Table())
	fmt.Printf("peak CRAS throughput: %.0f%% of the disk rate (paper: 55%% at 1s delay, 70%% at 3s)\n\n",
		100*res.PeakCRASFraction())
}

func runAccuracy(cfg expt.AccuracyConfig, seed int64, quick bool, duration time.Duration) {
	cfg.Seed = seed
	cfg.Duration = duration
	if quick {
		if len(cfg.StreamCounts) > 5 {
			cfg.StreamCounts = []int{1, 4, 8, 14, 20}
		}
		if duration == 0 {
			cfg.Duration = 12 * time.Second
		}
	}
	fmt.Println(expt.RunAccuracy(cfg).Table())
}
