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
	"repro/internal/workload"
)

// OverloadSweepConfig drives the control-plane overload sweep: a fixed set
// of admitted viewers plays undisturbed while an open flood arrives at a
// rising rate, and the sweep measures how the shed gate and the bounded
// request port split the flood — and what it cost the admitted streams.
type OverloadSweepConfig struct {
	Seed     int64
	Viewers  int       // admitted baseline streams; default 4
	Duration sim.Time  // measured playback per viewer; default 12 s
	Rates    []float64 // flood open-arrival rates, opens/second; default 4..256
}

// OverloadPoint is one arrival-rate point.
type OverloadPoint struct {
	Rate     float64 // offered opens per second
	Launched int
	Admitted int // flood opens that succeeded (and closed again)
	Shed     int // typed overload errors seen by flooders
	Refused  int // admission refusals (the flood's own streams competing)

	RequestsShed  int      // server-side shed gate count
	SendsRejected int64    // bounded request port rejections
	RetryHint     sim.Time // last retry-after the gate suggested

	ViewerLost     int // frames the admitted viewers never got
	IODeadlineMiss int // interval batches finishing late
}

// ShedRate is the fraction of the flood turned away with a typed error.
func (p OverloadPoint) ShedRate() float64 {
	if p.Launched == 0 {
		return 0
	}
	return float64(p.Launched-p.Admitted) / float64(p.Launched)
}

// OverloadSweepResult is the sweep's row set.
type OverloadSweepResult struct {
	Viewers int
	Points  []OverloadPoint
}

// floodWindow is how long each point's flood keeps arriving. It starts one
// second in, after the viewers' own opens are done.
const floodWindow = 8 * time.Second

// RunOverloadSweep replays the same seeded viewer load against an open
// flood at each arrival rate. The control budget is pinned low (8 per
// interval) and the request queue short (16) so the gate's behaviour — not
// the disk's — is what the sweep exercises.
func RunOverloadSweep(cfg OverloadSweepConfig) *OverloadSweepResult {
	if cfg.Viewers == 0 {
		cfg.Viewers = 4
	}
	if cfg.Duration == 0 {
		cfg.Duration = 12 * time.Second
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{4, 16, 64, 256}
	}
	res := &OverloadSweepResult{Viewers: cfg.Viewers}
	for _, rate := range cfg.Rates {
		res.Points = append(res.Points, runOverloadPoint(cfg, rate))
	}
	return res
}

func runOverloadPoint(cfg OverloadSweepConfig, rate float64) OverloadPoint {
	cat := newCatalog(media.MPEG1(), "/m%02d", cfg.Viewers, cfg.Duration+2*time.Second)

	count := int(rate * floodWindow.Seconds())
	burst := sim.Time(float64(time.Second) / rate)
	players := make([]*workload.PlayerStats, cfg.Viewers)
	for i := range players {
		players[i] = &workload.PlayerStats{}
	}
	var flood workload.FloodStats
	var server *core.Server
	m := lab.Build(lab.Setup{
		Seed:   cfg.Seed,
		Movies: cat.movies,
		CRAS: core.Config{
			BufferBudget:        64 << 20,
			MaxRequestsPerCycle: 8,
			RequestQueueCap:     16,
		},
	}, func(m *lab.Machine) {
		server = m.CRAS
		for i := 0; i < cfg.Viewers; i++ {
			workload.CRASPlayer(m.Kernel, m.CRAS, cat.infos[i], cat.paths[i],
				core.OpenOptions{}, workload.PlayerConfig{Priority: rtm.PrioRTLow}, players[i])
		}
		m.App("flood-ctl", rtm.PrioTS, 0, func(th *rtm.Thread) {
			th.Sleep(time.Second) // let the viewers' opens through first
			workload.OpenFlooder(m.Kernel, m.CRAS, cat.infos[0], cat.paths[0], count, burst, &flood)
		})
	})
	m.Run(cfg.Duration + 8*time.Second)

	st := server.Stats()
	pt := OverloadPoint{
		Rate:     rate,
		Launched: flood.Launched,
		Admitted: flood.Admitted,
		Shed:     flood.Shed,
		Refused:  flood.Refused,

		RequestsShed:  st.RequestsShed,
		SendsRejected: st.SendsRejected,
		RetryHint:     flood.RetryHint,

		IODeadlineMiss: st.IODeadlineMiss,
	}
	for _, p := range players {
		pt.ViewerLost += p.Lost
	}
	return pt
}

// Table renders the sweep.
func (r *OverloadSweepResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Control-plane overload: open flood against %d admitted viewers", r.Viewers),
		"opens/s", "launched", "admitted", "shed", "refused", "gate shed", "port reject",
		"shed rate", "viewer lost", "io miss")
	for _, pt := range r.Points {
		t.AddRow(fmt.Sprintf("%.0f", pt.Rate), pt.Launched, pt.Admitted, pt.Shed, pt.Refused,
			pt.RequestsShed, pt.SendsRejected,
			fmt.Sprintf("%.0f%%", 100*pt.ShedRate()), pt.ViewerLost, pt.IODeadlineMiss)
	}
	return t
}
