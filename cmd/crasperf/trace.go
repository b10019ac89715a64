package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sim"
)

// span is one call the benchmark made into a layer, with both clocks. The
// session span is the root of one viewer's calls; step spans are the
// measured phase's RunFor(T) slices.
type span struct {
	name             string
	id, parent, tid  int32
	simStart, simEnd sim.Time
	wallStart, wall  time.Duration // wall start from the tracer's origin; wall duration
}

// track names the counter tracks sampled at every step edge.
var track = []string{"reads", "stamps", "disk_ops", "ufs_calls", "preemptions", "active_streams", "wired_mb"}

// tracer keeps spans and counter tracks in memory for a traced run and
// writes them as Chrome trace-event JSON when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
	getNS  hist // wall ns of each Handle.Get / Session.Get

	rows     []trackRow
	last     counters
	wiredMax float64
	heap25   float64 // live heap after GC at a quarter of the horizon
	quarter  sim.Time
}

type trackRow struct {
	at sim.Time
	v  [7]float64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span; every method is a no-op on a nil tracer, so the
// untraced run pays one nil check per call.
func (t *tracer) begin(name string, tid int, parent int32, now sim.Time) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, tid: int32(tid) + 1,
		simStart: now, simEnd: -1, wallStart: time.Since(t.origin), wall: -1})
	return id
}

func (t *tracer) end(id int32, now sim.Time) {
	if t == nil || id < 0 {
		return
	}
	sp := &t.spans[id]
	sp.simEnd = now
	sp.wall = time.Since(t.origin) - sp.wallStart
}

// sample runs at each step edge: one step span plus every counter track.
func (t *tracer) sample(r *run, at sim.Time, wall time.Duration) {
	t.spans = append(t.spans, span{name: "step", id: int32(len(t.spans)), parent: -1,
		simStart: at - interval, simEnd: at, wallStart: time.Since(t.origin) - wall, wall: wall})
	c := r.snapshot(true)
	wired := float64(c.wired) / (1 << 20)
	t.wiredMax = max(t.wiredMax, wired)
	t.rows = append(t.rows, trackRow{at: at, v: [7]float64{
		float64(c.reads - t.last.reads), float64(c.stamps - t.last.stamps),
		float64(c.diskOps - t.last.diskOps), float64(c.ufsCalls - t.last.ufsCalls),
		float64(c.preempt - t.last.preempt), float64(c.active), wired,
	}})
	t.last = c
	if t.heap25 == 0 && at >= t.quarter {
		t.heap25 = liveHeapMB()
	}
}

// spanQuantile is the q-quantile of the simulated durations of the named
// spans, in ms.
func (t *tracer) spanQuantile(name string, q float64) float64 {
	var ms []float64
	for _, sp := range t.spans {
		if sp.name == name && sp.simEnd >= 0 {
			ms = append(ms, float64(sp.simEnd-sp.simStart)/1e6)
		}
	}
	return quantile(ms, q)
}

// write emits the spans (timestamps in simulated µs, wall clock in args)
// and the counter tracks as Chrome trace-event JSON.
func (t *tracer) write(path string, end sim.Time) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`+"\n")
	fmt.Fprint(w, `{"name":"process_name","ph":"M","pid":1,"args":{"name":"crasperf (simulated time)"}}`)
	us := func(d sim.Time) float64 { return float64(d) / 1e3 }
	for _, sp := range t.spans {
		simEnd, wall := sp.simEnd, sp.wall
		if simEnd < 0 { // still open at the horizon
			simEnd, wall = end, time.Since(t.origin)-sp.wallStart
		}
		fmt.Fprintf(w, ",\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"wall_start_us":%.3f,"wall_dur_us":%.3f}}`,
			sp.name, sp.tid, us(sp.simStart), us(simEnd-sp.simStart), sp.id, sp.parent,
			float64(sp.wallStart)/1e3, float64(wall)/1e3)
	}
	for _, row := range t.rows {
		for i, name := range track {
			fmt.Fprintf(w, ",\n"+`{"name":%q,"ph":"C","pid":1,"ts":%.3f,"args":{"value":%g}}`, name, us(row.at), row.v[i])
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
