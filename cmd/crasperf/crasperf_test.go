package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for crasperf when a traced run
// starts its untraced reference as a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-reference" {
		os.Exit(realMain(time.Now(), os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// A viewer that leaves early is owed its whole script: the frames it
// skipped count as due and failed, and a session that ends with scripted
// frames unaccounted for fails the output check.
func TestLeavingViewerOwesItsFrames(t *testing.T) {
	stay := &viewer{state: admitted, done: true, frames: 100, got: 100, first: -1, failoverAt: -1}
	gone := &viewer{state: admitted, done: true, frames: 100, got: 40, left: 60, first: -1, failoverAt: -1}
	watching := &viewer{state: admitted, frames: 100, got: 30, first: -1, failoverAt: -1}
	r := &run{p: &plan{viewers: []*viewer{stay, gone, watching}}, killed: -1}
	r.check(counters{})
	if len(r.violations) != 0 {
		t.Fatalf("violations: %v", r.violations)
	}
	o := r.outcome()
	if o.due != 230 || o.failed != 60 {
		t.Errorf("due %d, failed %d; want 230, 60", o.due, o.failed)
	}
	if m := r.simMetrics(o); m["stayed_frac"] != 170.0/230 || m["frame_delivered_frac"] != 1 {
		t.Errorf("stayed_frac %v, frame_delivered_frac %v; want %v, 1", m["stayed_frac"], m["frame_delivered_frac"], 170.0/230)
	}
	gone.left = 0
	r.check(counters{})
	if len(r.violations) != 1 {
		t.Errorf("a viewer leaving without its skipped frames: violations %v", r.violations)
	}
}

// simMetricNames are the metrics measured in simulated time: exact at a seed.
var simMetricNames = []string{"admit_frac", "frame_delivered_frac", "stayed_frac", "frame_loss_frac", "startup_ms.p50",
	"startup_ms.p99", "frame_late_ms.p99", "vcr_ms.p99", "failover_ms.p50", "record_loss_frac"}

// Every workload, run twice at one seed over a minute of simulated time,
// passes its output checks and repeats its behaviour digest, operation
// counts and simulated-time metrics exactly. Each run times one set-up
// only: setup_s is wall clock and not compared.
func TestWorkloadsRepeat(t *testing.T) {
	for _, w := range workloads {
		o := options{workload: w.name, seed: 7, horizon: time.Minute, setups: 1}
		a, err := execute(o, time.Now())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := execute(o, time.Now())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !a.Correct || !b.Correct {
			t.Errorf("%s: output checks failed: %v %v", w.name, a.Violations, b.Violations)
		}
		if a.Digest != b.Digest || a.Attempted != b.Attempted || a.Failed != b.Failed {
			t.Errorf("%s: runs differ: digest %s/%s, attempted %d/%d, failed %d/%d",
				w.name, a.Digest, b.Digest, a.Attempted, b.Attempted, a.Failed, b.Failed)
		}
		for _, m := range simMetricNames {
			if a.Metrics[m] != b.Metrics[m] {
				t.Errorf("%s: %s differs: %v vs %v", w.name, m, a.Metrics[m], b.Metrics[m])
			}
		}
		if a.Attempted == 0 || a.Metrics["admit_frac"] == 0 || a.Samples["startup"] == 0 {
			t.Errorf("%s: the minute did no work: %+v", w.name, a)
		}
	}
}

// The last line printed is the result object, and its metric names and
// units are exactly those BENCHMARK.json declares, untraced and traced. The
// traced run also replays the untraced run's behaviour.
func TestPrintedMetricsMatchBenchmark(t *testing.T) {
	bench, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range bench.Workloads {
		if i >= len(workloads) || w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%s)", i, w.Name, w.Why)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, crasperf runs %d", len(bench.Workloads), len(workloads))
	}
	type decl struct {
		unit, better string
		bound        float64
	}
	declared := func(defs []metricDef) map[string]decl {
		m := map[string]decl{}
		for _, d := range defs {
			m[d.name] = decl{d.unit, d.better, d.bound}
		}
		return m
	}
	e2e, layer := map[string]decl{}, map[string]decl{}
	e2eUnits, layerUnits := map[string]string{}, map[string]string{}
	for _, d := range bench.EndToEnd {
		e2e[d.Name], e2eUnits[d.Name] = decl{d.Unit, d.Better, d.Bound}, d.Unit
	}
	for _, d := range bench.PerLayer {
		layer[d.Name], layerUnits[d.Name] = decl{d.Unit, d.Better, 0}, d.Unit
	}
	equalSets(t, "end_to_end", e2e, declared(endToEnd))
	equalSets(t, "per_layer", layer, declared(perLayer))

	trace := filepath.Join(t.TempDir(), "trace.json")
	var digests []string
	for _, args := range [][]string{
		{"-workload", "cold-tail", "-seed", "3", "-seconds", "1"},
		{"-workload", "cold-tail", "-seed", "3", "-seconds", "1", "-trace", "1", "-trace-out", trace},
	} {
		var out, errOut bytes.Buffer
		if code := realMain(time.Now(), args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   *bool
			Attempted *int64
			Failed    *int64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line: %v", err)
		}
		if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil {
			t.Errorf("%v: result header %s", args, lines[len(lines)-1])
		}
		got := map[string]string{}
		for name, v := range res.Metrics {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s = %v", name, v.Value)
			}
			got[name] = v.Unit
		}
		want := e2eUnits
		if len(args) > 6 {
			want = layerUnits
		}
		equalSets(t, strings.Join(args, " "), got, want)
		var rep map[string]report
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
			t.Fatalf("report line: %v", err)
		}
		digests = append(digests, rep["report"].Digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("traced run digest %s, untraced %s", digests[1], digests[0])
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
	var tr struct{ TraceEvents []map[string]any }
	if data, err := os.ReadFile(trace); err != nil || json.Unmarshal(data, &tr) != nil || len(tr.TraceEvents) < 100 {
		t.Errorf("trace file is not Chrome trace JSON with events (%v)", err)
	}
}

func equalSets[V comparable](t *testing.T, what string, got, want map[string]V) {
	t.Helper()
	var diff []string
	for k, v := range want {
		if got[k] != v {
			diff = append(diff, fmt.Sprintf("%s: want %v, got %v", k, v, got[k]))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diff = append(diff, k+" not declared")
		}
	}
	sort.Strings(diff)
	if len(diff) > 0 {
		t.Errorf("%s: metric sets differ:\n%s", what, strings.Join(diff, "\n"))
	}
}

// spread computes quartiles as Python's statistics.quantiles(v, n=4) does.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		v            []float64
		median, frac float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, (8.25 - 2.75) / 5.5},
		{[]float64{3, 1, 2}, 2, 2.0 / 2},
		{[]float64{10, 10, 10, 10}, 10, 0},
	} {
		med, frac := spread(c.v)
		if math.Abs(med-c.median) > 1e-12 || math.Abs(frac-c.frac) > 1e-12 {
			t.Errorf("spread(%v) = %v, %v; want %v, %v", c.v, med, frac, c.median, c.frac)
		}
	}
}

// A histogram bucket holds its values, and quantiles land within a bucket
// width (1/16) of the exact answer.
func TestHistQuantile(t *testing.T) {
	var h hist
	var exact []float64
	for v := int64(0); v < 100000; v += 7 {
		b := histBucket(v)
		if histLow(b) > v || v >= histLow(b+1) {
			t.Fatalf("value %d outside its bucket [%d,%d)", v, histLow(b), histLow(b+1))
		}
		h.add(v)
		exact = append(exact, float64(v))
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99} {
		got, want := h.quantile(q), quantile(exact, q)
		if math.Abs(got-want) > want/16+1 {
			t.Errorf("q%v: hist %v, exact %v", q, got, want)
		}
	}
}

// -compare's verdicts follow the direction and the bound, and a spread
// wider than the bound leaves the change unresolved.
func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		neu    []float64
		better string
		want   string
	}{
		{[]float64{100, 101, 100, 99, 100}, "lower", "unchanged"},
		{[]float64{120, 121, 119, 120, 120}, "lower", "worse"},
		{[]float64{80, 81, 79, 80, 80}, "lower", "improved"},
		{[]float64{80, 81, 79, 80, 80}, "higher", "worse"},
		{[]float64{60, 140, 90, 110, 100}, "lower", "unresolved"},
	} {
		if _, got := verdict(base, c.neu, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.neu, c.better, got, c.want)
		}
	}
}
