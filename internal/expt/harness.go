package expt

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The sweeps share one harness: a catalog of identical-length titles, a
// run loop that stops when every viewer is done, a disk-utilisation window
// opened at ready, and a tally of the viewers' fates. Each sweep point
// supplies only its configuration, its launch and its own counters.

// catalog is a sweep's title set: n titles of one profile and length,
// named by format ("/m%02d" names them /m00, /m01, ...).
type catalog struct {
	movies []lab.Movie
	infos  []*media.StreamInfo
	paths  []string
}

func newCatalog(prof media.CBRProfile, format string, n int, length sim.Time) catalog {
	var c catalog
	for i := 0; i < n; i++ {
		path := fmt.Sprintf(format, i)
		info := prof.Generate(path, length)
		c.movies = append(c.movies, lab.Movie{Path: path, Info: info})
		c.infos = append(c.infos, info)
		c.paths = append(c.paths, path)
	}
	return c
}

// framesIn is how many of prof's frames play in d.
func framesIn(prof media.CBRProfile, d sim.Time) int {
	return int(d / (sim.Time(time.Second) / sim.Time(prof.FrameRate)))
}

// runUntilDone advances r one simulated second at a time until every
// viewer in *outs is done or horizon passes, then panics on a setup error.
// outs is read through a pointer because a launch at ready fills it during
// the first Run.
func runUntilDone[T any](r interface {
	Run(sim.Time)
	Err() error
}, horizon sim.Time, outs *[]T, done func(T) bool) {
	for ran := sim.Time(0); ran < horizon; ran += time.Second {
		r.Run(time.Second)
		if !slices.ContainsFunc(*outs, func(o T) bool { return !done(o) }) {
			break
		}
	}
	if err := r.Err(); err != nil {
		panic(err)
	}
}

// utilWindow measures each volume member's busy fraction from the moment
// it opens, so I/O before it (mkfs, movie writes) is not the sweep's
// traffic.
type utilWindow struct {
	m     *lab.Machine
	start sim.Time
	busy0 []sim.Time
}

func openUtil(m *lab.Machine) *utilWindow {
	w := &utilWindow{m: m, start: m.Eng.Now(), busy0: make([]sim.Time, m.Vol.NumDisks())}
	for d := range w.busy0 {
		w.busy0[d] = m.Vol.Disk(d).Stats().BusyTime
	}
	return w
}

// util returns each member's busy fraction since the window opened.
func (w *utilWindow) util() []float64 {
	u := make([]float64, len(w.busy0))
	if elapsed := w.m.Eng.Now() - w.start; elapsed > 0 {
		for d := range u {
			u[d] = (w.m.Vol.Disk(d).Stats().BusyTime - w.busy0[d]).Seconds() / elapsed.Seconds()
		}
	}
	return u
}

// utilRange is the lowest and highest member utilisation (0, 0 for none).
func utilRange(u []float64) (lo, hi float64) {
	if len(u) == 0 {
		return 0, 0
	}
	return slices.Min(u), slices.Max(u)
}

// runAudience boots a machine on setup and, at ready, opens a utilisation
// window and launches the audience. It runs until every viewer is done or
// horizon passes, and returns the machine, the audience and the disk's
// utilisation over the run.
func runAudience[T any](setup lab.Setup, horizon sim.Time,
	launch func(m *lab.Machine) []T, done func(T) bool) (*lab.Machine, []T, float64) {
	var outs []T
	var w *utilWindow
	m := lab.Build(setup, func(m *lab.Machine) {
		w = openUtil(m)
		outs = launch(m)
	})
	runUntilDone(m, horizon, &outs, done)
	return m, outs, w.util()[0]
}

// viewerDone reports whether a viewer has finished.
func viewerDone(o *workload.ViewerOutcome) bool { return o.Stats.Done }

// tally counts a viewer population's fates.
type tally struct {
	admitted, rejected, lost           int
	cacheBacked, members, prefixStarts int
}

// add records one viewer, including how its open was served, and reports
// whether admission let it in. A viewer whose frame ledger does not
// balance, or that was handed an expired chunk, fails the sweep.
func (t *tally) add(o *workload.ViewerOutcome) bool {
	if err := o.Stats.Check(); err != nil {
		panic(fmt.Sprintf("viewer of movie %d arriving at %v: %v", o.Movie, o.At, err))
	}
	if !o.Admitted {
		t.rejected++
		return false
	}
	t.admitted++
	t.lost += o.Stats.Lost
	if o.CacheBacked {
		t.cacheBacked++
	}
	if o.Multicast {
		t.members++
	}
	if o.PrefixStart {
		t.prefixStarts++
	}
	return true
}

// probe is one capacity probe's outcome.
type probe struct {
	admitted int
	util     []float64  // per-member busy fraction of the playback window
	stats    core.Stats // server counters at the window's end
	stripe   int64      // the volume's stripe unit, sectors
}

// capacityProbe is the stripe and parity sweeps' shared body. It boots
// setup with info as its one title and a buffer budget high enough that
// disk time, not RAM, binds; opens identical streams until admission
// refuses one; starts them and renews them for window while measuring each
// member; then closes them. With killMember set, member 1 fails (operator
// fail, no detector latency) before the first open.
func capacityProbe(setup lab.Setup, info *media.StreamInfo, window sim.Time, killMember bool) probe {
	setup.Movies = []lab.Movie{{Path: "/movie", Info: info}}
	setup.CRAS = core.Config{BufferBudget: 512 << 20, MaxRequestsPerCycle: -1}
	var pr probe
	m := lab.Build(setup, func(m *lab.Machine) {
		m.App("sweep", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			if killMember {
				m.CRAS.FailMember(1)
				th.Sleep(2 * time.Second)
			}
			var handles []*core.Handle
			for len(handles) < 200 {
				h, err := m.CRAS.Open(th, info, "/movie", core.OpenOptions{})
				if err != nil {
					break
				}
				handles = append(handles, h)
			}
			pr.admitted = len(handles)
			for _, h := range handles {
				h.Start(th)
			}
			w := openUtil(m)
			for m.Kernel.Now() < w.start+window {
				th.Sleep(time.Second)
				for _, h := range handles {
					h.Renew(th)
				}
			}
			pr.util = w.util()
			pr.stats = m.CRAS.Stats()
			for _, h := range handles {
				h.Close(th)
			}
		})
	})
	m.Run(window + 22*time.Second)
	pr.stripe = m.Vol.StripeSectors()
	return pr
}
