package expt

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// DelaySweepPoint is one initial-delay setting's outcome at a fixed,
// deliberately aggressive stream count.
type DelaySweepPoint struct {
	Delay      sim.Time
	Throughput float64 // on-time bytes/s
	Fraction   float64 // of the disk rate
	Lost       int
}

// DelaySweepResult backs the Section 3.1 claim that a longer initial delay
// lets CRAS sustain more load (55% of the disk at 1 s, ~70% at 3 s for 25
// MPEG1 streams).
type DelaySweepResult struct {
	Streams int
	Points  []DelaySweepPoint
}

// RunDelaySweep measures on-time throughput for a fixed stream count at
// several initial delays.
func RunDelaySweep(seed int64, streams int, duration sim.Time, delays []sim.Time) *DelaySweepResult {
	if streams == 0 {
		streams = 25
	}
	if duration == 0 {
		duration = 30 * time.Second
	}
	if len(delays) == 0 {
		delays = []sim.Time{time.Second, 2 * time.Second, 3 * time.Second}
	}
	res := &DelaySweepResult{Streams: streams}
	for _, delay := range delays {
		r := RunPlayback(PlaybackConfig{
			Seed: seed, Streams: streams, Profile: media.MPEG1(),
			Duration: duration, UseCRAS: true, Force: true,
			InitialDelay: delay,
		})
		res.Points = append(res.Points, DelaySweepPoint{
			Delay:      delay,
			Throughput: r.OnTimeThroughput(),
			Fraction:   r.OnTimeThroughput() / r.MediaRate,
			Lost:       r.LostFrames(),
		})
	}
	return res
}

// Table renders the sweep.
func (r *DelaySweepResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Initial-delay sweep (Section 3.1): %d MPEG1 streams", r.Streams),
		"initial delay", "on-time throughput", "% of disk", "lost frames")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%v", p.Delay), metrics.MBps(p.Throughput),
			fmt.Sprintf("%.0f%%", 100*p.Fraction), p.Lost)
	}
	return t
}

// VBRResult demonstrates the first Section 3.2 problem: CRAS sizes buffers
// from the worst-case rate, so bursty VBR streams waste buffer memory.
type VBRResult struct {
	AvgRate     float64
	WorstRate   float64
	Capacity    int64
	PeakUsed    int64
	Utilization float64
	Lost        int
}

// RunVBR plays one VBR stream through CRAS and reports buffer economics.
func RunVBR(seed int64, duration sim.Time) *VBRResult {
	if duration == 0 {
		duration = 20 * time.Second
	}
	eng := sim.NewEngine(seed)
	info := media.VBRProfile{FrameRate: 30, MeanRate: 187500, Jitter: 0.3}.
		Generate("/vbr", duration+3*time.Second, eng.RNG("vbr"))

	var capacity, peak int64
	m := lab.Build(lab.Setup{
		Seed:   seed,
		Movies: []lab.Movie{{Path: "/vbr", Info: info}},
		CRAS:   core.Config{BufferBudget: 64 << 20},
	}, func(m *lab.Machine) {
		m.App("vbr-app", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			h, err := m.CRAS.Open(th, info, "/vbr", core.OpenOptions{})
			if err != nil {
				return
			}
			capacity = h.BufferStats().Capacity()
			h.Start(th)
			// Stay resident for the whole run, renewing the lease: this
			// client watches the buffer high-water mark rather than
			// consuming, and must not read as dead to the reaper.
			for end := m.Kernel.Now() + duration + 4*time.Second; m.Kernel.Now() < end; {
				th.Sleep(time.Second)
				h.Renew(th)
			}
			peak = h.BufferStats().PeakBytes
		})
	})
	m.Run(duration + 8*time.Second)
	res := &VBRResult{
		AvgRate:   info.AvgRate(),
		WorstRate: info.WorstCaseRate(500 * time.Millisecond),
		Capacity:  capacity,
		PeakUsed:  peak,
	}
	if capacity > 0 {
		res.Utilization = float64(peak) / float64(capacity)
	}
	return res
}

// Table renders the VBR buffer economics.
func (r *VBRResult) Table() *metrics.Table {
	t := metrics.NewTable("VBR buffer waste (Section 3.2 problem 1)", "metric", "value")
	t.AddRow("average rate", metrics.MBps(r.AvgRate))
	t.AddRow("worst-case rate (admission input)", metrics.MBps(r.WorstRate))
	t.AddRow("buffer capacity (worst-case sized)", fmt.Sprintf("%d KB", r.Capacity/1024))
	t.AddRow("peak buffer actually used", fmt.Sprintf("%d KB", r.PeakUsed/1024))
	t.AddRow("utilization", fmt.Sprintf("%.0f%%", 100*r.Utilization))
	return t
}

// FragmentationResult demonstrates the third Section 3.2 problem: an
// edited (fragmented) file degrades CRAS throughput because extents shrink.
type FragmentationResult struct {
	TunedAvgExtent  int64
	FragAvgExtent   int64
	TunedThroughput float64
	FragThroughput  float64
	TunedReads      int64
	FragReads       int64
}

// RunFragmentation plays identical stream sets on a tuned layout and on a
// rotdelay-fragmented layout.
func RunFragmentation(seed int64, streams int, duration sim.Time) *FragmentationResult {
	if streams == 0 {
		// Enough offered load that the fragmented layout's per-read
		// overhead actually costs throughput, not just extra requests.
		streams = 14
	}
	if duration == 0 {
		duration = 15 * time.Second
	}
	run := func(opts ufs.Options) (float64, int64, int64) {
		r := RunPlayback(PlaybackConfig{
			Seed: seed, Streams: streams, Profile: media.MPEG1(),
			Duration: duration, UseCRAS: true, Force: true, FSOpts: opts,
		})
		return r.OnTimeThroughput(), r.CRASStats.ReadsIssued, avgExtent(r)
	}
	res := &FragmentationResult{}
	res.TunedThroughput, res.TunedReads, res.TunedAvgExtent = run(ufs.Options{})
	res.FragThroughput, res.FragReads, res.FragAvgExtent = run(ufs.Options{MaxContig: 2, RotDelay: 4})
	return res
}

func avgExtent(r *PlaybackResult) int64 {
	if r.CRASStats.ReadsIssued == 0 {
		return 0
	}
	return r.CRASStats.BytesRead / r.CRASStats.ReadsIssued
}

// Table renders the comparison.
func (r *FragmentationResult) Table() *metrics.Table {
	t := metrics.NewTable("Fragmentation from editing (Section 3.2 problem 3)",
		"layout", "avg read size", "reads issued", "on-time throughput")
	t.AddRow("tuned (contiguous)", fmt.Sprintf("%d KB", r.TunedAvgExtent/1024), r.TunedReads, metrics.MBps(r.TunedThroughput))
	t.AddRow("fragmented (rotdelay)", fmt.Sprintf("%d KB", r.FragAvgExtent/1024), r.FragReads, metrics.MBps(r.FragThroughput))
	return t
}

// RecordResult exercises the constant-rate writing extension.
type RecordResult struct {
	Sessions       int
	PlannedBytes   int64
	WrittenBytes   int64
	IODeadlineMiss int
	Duration       sim.Time
}

// RunRecord records several streams simultaneously at a constant rate.
func RunRecord(seed int64, sessions int, duration sim.Time) *RecordResult {
	if sessions == 0 {
		sessions = 4
	}
	if duration == 0 {
		duration = 15 * time.Second
	}
	infos := make([]*media.StreamInfo, sessions)
	for i := range infos {
		infos[i] = media.MPEG1().Generate(fmt.Sprintf("/rec%d", i), duration)
	}
	res := &RecordResult{Sessions: sessions, Duration: duration}
	var server *core.Server
	m := lab.Build(lab.Setup{Seed: seed, CRAS: core.Config{BufferBudget: 64 << 20}},
		func(m *lab.Machine) {
			server = m.CRAS
			for i := 0; i < sessions; i++ {
				i := i
				m.App(fmt.Sprintf("recorder%d", i), rtm.PrioRTLow, 0, func(th *rtm.Thread) {
					h, err := m.CRAS.OpenRecord(th, infos[i], fmt.Sprintf("/rec%d", i), core.OpenOptions{})
					if err != nil {
						return
					}
					h.Start(th)
					// A recorder rides the capture clock and never reads the
					// buffer; renew the lease until the capture is done, then
					// close like a well-behaved client.
					for end := m.Kernel.Now() + duration + 4*time.Second; m.Kernel.Now() < end; {
						th.Sleep(time.Second)
						h.Renew(th)
					}
					h.Close(th)
				})
			}
		})
	m.Run(duration + 6*time.Second)
	for _, info := range infos {
		res.PlannedBytes += info.TotalSize()
	}
	st := server.Stats()
	res.WrittenBytes = st.BytesRead // bytes moved by the periodic scheduler
	res.IODeadlineMiss = st.IODeadlineMiss
	return res
}

// Table renders the recording run.
func (r *RecordResult) Table() *metrics.Table {
	t := metrics.NewTable("Constant-rate recording (Conclusions extension)", "metric", "value")
	t.AddRow("sessions", r.Sessions)
	t.AddRow("planned bytes", fmt.Sprintf("%d KB", r.PlannedBytes/1024))
	t.AddRow("written bytes", fmt.Sprintf("%d KB", r.WrittenBytes/1024))
	t.AddRow("I/O deadline misses", r.IODeadlineMiss)
	return t
}
