// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablations of the design choices DESIGN.md calls
// out. Each iteration runs a complete (scaled-down) simulated experiment;
// the headline result is attached as a custom metric so
// `go test -bench=. -benchmem` prints the reproduced numbers alongside the
// runtime cost of regenerating them. cmd/crasbench runs the full-scale
// sweeps.
package cras_test

import (
	"testing"
	"time"

	"repro/internal/expt"
	"repro/internal/media"
)

const benchSeconds = 10 * time.Second

// BenchmarkFig6CRASThroughput reproduces Figure 6's CRAS curve at ten
// 1.5 Mb/s streams with background disk load. Metric: delivered on-time
// MB/s (paper shape: tracks the offered load, unaffected by the cats).
func BenchmarkFig6CRASThroughput(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		r := expt.RunPlayback(expt.PlaybackConfig{
			Seed: int64(i + 1), Streams: 10, Profile: media.MPEG1(),
			Duration: benchSeconds, UseCRAS: true, Load: true, Force: true,
		})
		tput = r.OnTimeThroughput()
	}
	b.ReportMetric(tput/1e6, "MBps")
}

// BenchmarkFig6UFSThroughput is the baseline curve: the same ten streams
// through the Unix file system under load. Metric: on-time MB/s (paper
// shape: collapses).
func BenchmarkFig6UFSThroughput(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		r := expt.RunPlayback(expt.PlaybackConfig{
			Seed: int64(i + 1), Streams: 10, Profile: media.MPEG1(),
			Duration: benchSeconds, Load: true,
		})
		tput = r.OnTimeThroughput()
	}
	b.ReportMetric(tput/1e6, "MBps")
}

// BenchmarkFig7DelayCRAS reproduces Figure 7's CRAS trace: one stream under
// disk load. Metric: worst frame delay in milliseconds (paper shape: small).
func BenchmarkFig7DelayCRAS(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r := expt.RunPlayback(expt.PlaybackConfig{
			Seed: int64(i + 1), Streams: 1, Profile: media.MPEG1(),
			Duration: benchSeconds, UseCRAS: true, Load: true,
		})
		worst = r.Players[0].Delays.Summary().Max
	}
	b.ReportMetric(worst*1000, "max-ms")
}

// BenchmarkFig7DelayUFS is the UFS trace of Figure 7. Metric: worst frame
// delay in milliseconds (paper shape: much larger than CRAS).
func BenchmarkFig7DelayUFS(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r := expt.RunPlayback(expt.PlaybackConfig{
			Seed: int64(i + 1), Streams: 1, Profile: media.MPEG1(),
			Duration: benchSeconds, Load: true,
		})
		worst = r.Players[0].Delays.Summary().Max
	}
	b.ReportMetric(worst*1000, "max-ms")
}

// BenchmarkFig8Admission reproduces one Figure 8 point: admission accuracy
// at ten 1.5 Mb/s streams. Metric: average actual/calculated ratio in
// percent (paper shape: pessimistic, well under 100).
func BenchmarkFig8Admission(b *testing.B) {
	cfg := expt.Fig8Config()
	cfg.StreamCounts = []int{10}
	cfg.Duration = benchSeconds
	var avg float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		avg = expt.RunAccuracy(cfg).Points[0].NoLoadAvg
	}
	b.ReportMetric(avg, "ratio-%")
}

// BenchmarkFig9Admission reproduces one Figure 9 point: accuracy at five
// 6 Mb/s streams under load. Metric: average ratio in percent (paper
// shape: higher than Figure 8's, approaching ~70-80%).
func BenchmarkFig9Admission(b *testing.B) {
	cfg := expt.Fig9Config()
	cfg.StreamCounts = []int{5}
	cfg.Duration = benchSeconds
	var avg float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		avg = expt.RunAccuracy(cfg).Points[0].LoadAvg
	}
	b.ReportMetric(avg, "ratio-%")
}

// BenchmarkFig10FixedPriority reproduces Figure 10's fixed-priority trace:
// one stream against CPU hogs. Metric: worst delay in ms (paper shape: ~0).
func BenchmarkFig10FixedPriority(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res := expt.RunFig10(expt.Fig10Config{Seed: int64(i + 1), Duration: benchSeconds})
		worst = res.FixedPriority.Summary().Max
	}
	b.ReportMetric(worst*1000, "max-ms")
}

// BenchmarkFig10RoundRobin is the round-robin trace. Metric: worst delay in
// ms plus lost frames (paper shape: delays explode).
func BenchmarkFig10RoundRobin(b *testing.B) {
	var worst float64
	var lost int
	for i := 0; i < b.N; i++ {
		res := expt.RunFig10(expt.Fig10Config{Seed: int64(i + 1), Duration: benchSeconds})
		worst = res.RoundRobin.Summary().Max
		lost = res.RRLost
	}
	b.ReportMetric(worst*1000, "max-ms")
	b.ReportMetric(float64(lost), "lost-frames")
}

// BenchmarkFig12SeekCurve measures the seek curve and its linear fit.
// Metric: the fitted full-stroke seek in ms (paper: 17 ms).
func BenchmarkFig12SeekCurve(b *testing.B) {
	var tmax time.Duration
	for i := 0; i < b.N; i++ {
		tmax = expt.RunFig12(int64(i + 1)).TseekMax
	}
	b.ReportMetric(float64(tmax)/1e6, "Tseekmax-ms")
}

// BenchmarkTable4DiskParams measures the full parameter set of Table 4.
// Metric: the timed transfer rate in MB/s (paper: 6.5).
func BenchmarkTable4DiskParams(b *testing.B) {
	var d float64
	for i := 0; i < b.N; i++ {
		d = expt.RunTable4(int64(i + 1)).MeasuredD
	}
	b.ReportMetric(d/1e6, "MBps")
}

// BenchmarkDelaySweep3s reproduces the Section 3.1 claim: 25 streams at a
// 3 s initial delay. Metric: fraction of the disk rate delivered on time
// (paper: ~70%).
func BenchmarkDelaySweep3s(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		res := expt.RunDelaySweep(int64(i+1), 25, benchSeconds,
			[]time.Duration{3 * time.Second})
		frac = res.Points[0].Fraction
	}
	b.ReportMetric(frac*100, "%disk")
}

// ---- ablations of DESIGN.md's called-out choices ----

// BenchmarkAblationNoRTQueue removes the paper's split disk queue: CRAS
// reads ride the normal queue together with a backup scanner that keeps
// eight raw requests in flight. Metric: on-time MB/s at ten streams —
// compare against BenchmarkAblationRTQueueVsScanner, which faces the same
// scanner with the split queue intact.
func BenchmarkAblationNoRTQueue(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		r := expt.RunPlayback(expt.PlaybackConfig{
			Seed: int64(i + 1), Streams: 10, Profile: media.MPEG1(),
			Duration: benchSeconds, UseCRAS: true, Scanner: true, Force: true,
			NoRTQueue: true,
		})
		tput = r.OnTimeThroughput()
	}
	b.ReportMetric(tput/1e6, "MBps")
}

// BenchmarkAblationRTQueueVsScanner is the control for the queue ablation:
// same ten streams and the same scanner, with the real-time queue doing
// its job.
func BenchmarkAblationRTQueueVsScanner(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		r := expt.RunPlayback(expt.PlaybackConfig{
			Seed: int64(i + 1), Streams: 10, Profile: media.MPEG1(),
			Duration: benchSeconds, UseCRAS: true, Scanner: true, Force: true,
		})
		tput = r.OnTimeThroughput()
	}
	b.ReportMetric(tput/1e6, "MBps")
}

// BenchmarkAblationSmallReads caps single reads at 32 KB instead of 256 KB,
// undoing the paper's large-read optimization. Metric: delivered on-time
// MB/s at a load where the full system keeps up.
func BenchmarkAblationSmallReads(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		r := expt.RunPlayback(expt.PlaybackConfig{
			Seed: int64(i + 1), Streams: 20, Profile: media.MPEG1(),
			Duration: benchSeconds, UseCRAS: true, Force: true,
			InitialDelay: 3 * time.Second, MaxRead: 32 << 10,
		})
		tput = r.OnTimeThroughput()
	}
	b.ReportMetric(tput/1e6, "MBps")
}

// BenchmarkAblationNoAdmission removes admission control: 25 streams all
// force-open at a 1 s delay (the disk sustains ~19). Metric: fraction of
// offered bytes delivered on time — compare against admitted operation,
// where every accepted stream is delivered in full.
func BenchmarkAblationNoAdmission(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		r := expt.RunPlayback(expt.PlaybackConfig{
			Seed: int64(i + 1), Streams: 25, Profile: media.MPEG1(),
			Duration: benchSeconds, UseCRAS: true, Force: true,
		})
		offered := 25 * 187500.0
		frac = r.OnTimeThroughput() / offered
	}
	b.ReportMetric(frac*100, "%offered")
}

// BenchmarkAblationFragmentedLayout plays on the untuned rotdelay layout —
// what happens without the paper's tunefs contiguity tuning.
func BenchmarkAblationFragmentedLayout(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		res := expt.RunFragmentation(int64(i+1), 6, benchSeconds)
		tput = res.FragThroughput
	}
	b.ReportMetric(tput/1e6, "MBps")
}
