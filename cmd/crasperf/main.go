// Command crasperf is the CRAS performance benchmark: seeded open-loop
// workloads driven end to end through the lab machine or the cluster front
// door, with checked outputs, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. See README.md.
//
//	go run . -workload premiere -seed 1 >> base.json  # end-to-end metrics
//	go run . -workload premiere -seed 1 -trace 1      # per-layer metrics + Chrome trace
//	go run . -compare base.json new.json              # verdicts per metric and workload
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the full
// run report (environment, digest, every metric computed). The exit code
// is non-zero when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// setups is how many set-ups an untraced run from the command line times;
// setup_s is their median.
const setups = 11

type options struct {
	workload string
	seed     int64
	seconds  int
	horizon  sim.Time // simulated length of the measured phase, from seconds
	setups   int      // set-ups timed for setup_s; the first is always timed
	trace    bool
	traceOut string
}

// report is everything one run measured; -compare reads files of them.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	HorizonS   float64            `json:"horizon_s"`
	Trace      bool               `json:"trace"`
	Env        env                `json:"env"`
	Digest     string             `json:"digest"`
	Correct    bool               `json:"correct"`
	Violations []string           `json:"violations,omitempty"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Samples    map[string]int     `json:"samples"`
	Metrics    map[string]float64 `json:"metrics"`
}

type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
}

func environment() env {
	e := env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Go: runtime.Version(), Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			e.Revision = rev + dirty
		}
	}
	return e
}

func main() {
	start := time.Now()
	os.Exit(realMain(start, os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(start time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crasperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	fs.IntVar(&o.seconds, "seconds", 15, "wall seconds the measured phase is sized for on the reference machine")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/crasperf-<workload>.trace.json)")
	refOnly := fs.Bool("reference", false, "time the untraced first quarter only (a traced run starts this as a child process)")
	compare := fs.Bool("compare", false, "compare two report files: -compare base.json new.json")
	bench := fs.String("bench", "BENCHMARK.json", "benchmark declaration -compare reads bounds and directions from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "crasperf: -compare needs two report files")
			return 2
		}
		if err := compareReports(stdout, *bench, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "crasperf:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || o.seconds < 1 {
		fmt.Fprintln(stderr, "crasperf: usage: -workload <name> -seed <n> -seconds <n> -trace 0|1")
		return 2
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "crasperf: unknown workload %q\n", o.workload)
		return 2
	}
	o.horizon = w.horizon(o.seconds)
	o.setups = setups
	o.trace = *trace == 1
	if o.trace && o.traceOut == "" {
		o.traceOut = fmt.Sprintf(".bench_build/crasperf-%s.trace.json", o.workload)
	}
	runtime.GOMAXPROCS(1)

	if *refOnly {
		ref, err := measureReference(w, o)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(ref)
		}
		if err != nil {
			fmt.Fprintln(stderr, "crasperf:", err)
			return 1
		}
		return 0
	}
	rep, err := execute(o, start)
	if err != nil {
		fmt.Fprintln(stderr, "crasperf:", err)
		return 1
	}
	line, err := json.Marshal(map[string]report{"report": *rep})
	if err != nil {
		fmt.Fprintln(stderr, "crasperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	printTable(stderr, rep, defs)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{rep.Metrics[d.name], d.unit}
	}
	last, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "crasperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !rep.Correct {
		for _, v := range rep.Violations {
			fmt.Fprintln(stderr, "crasperf: check failed:", v)
		}
		return 1
	}
	return 0
}

func printTable(w io.Writer, rep *report, defs []metricDef) {
	fmt.Fprintf(w, "crasperf %s seed %d: %.0f simulated s, digest %s, correct %v, %d/%d operations failed\n",
		rep.Workload, rep.Seed, rep.HorizonS, rep.Digest, rep.Correct, rep.Failed, rep.Attempted)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, rep.Metrics[d.name], d.unit)
	}
	keys := make([]string, 0, len(rep.Samples))
	for k := range rep.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  samples %-26s %14d\n", k, rep.Samples[k])
	}
}

// reference is the untraced first quarter of a workload's horizon: how many
// steps it took and their calibrated wall time.
type reference struct {
	Steps  int     `json:"steps"`
	CostMS float64 `json:"cost_ms"`
}

// measureReference boots the workload and times the first quarter of its
// horizon untraced. A traced run starts it as a child process (see
// childReference).
func measureReference(w workloadDef, o options) (reference, error) {
	r := newRun(w.script(o.seed, o.horizon), o.seed, false)
	if err := r.boot(o.horizon, true); err != nil {
		return reference{}, err
	}
	r.measure(r.readyAt + o.horizon/4/interval*interval)
	return reference{len(r.stepCost), sum(r.scaled(r.stepCost))}, nil
}

// childReference runs measureReference in a child process of this binary.
// A booted system is never freed (its threads stay parked), so a reference
// run in this process would stay live through the traced run and add its
// heap to the traced run's collections.
func childReference(o options) (reference, error) {
	exe, err := os.Executable()
	if err != nil {
		return reference{}, err
	}
	cmd := exec.Command(exe, "-reference", "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return reference{}, fmt.Errorf("reference run: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(out, &ref); err != nil {
		return reference{}, fmt.Errorf("reference run: %w", err)
	}
	return ref, nil
}

// execute runs one workload: untraced for the end-to-end metrics, or
// traced (plus an untraced reference for the tracing overhead, plus the
// layer probes) for the per-layer ones.
func execute(o options, start time.Time) (*report, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	horizon := o.horizon
	plan := func() *plan { return w.script(o.seed, horizon) }
	rep := &report{Workload: w.name, Seed: o.seed, Seconds: o.seconds, HorizonS: horizon.Seconds(),
		Trace: o.trace, Env: environment(), Samples: map[string]int{}}

	var ref reference
	if o.trace {
		// The untraced reference covers the same simulated prefix as the
		// traced run's first quarter, so their wall ratio is the tracing
		// overhead.
		var err error
		if ref, err = childReference(o); err != nil {
			return nil, err
		}
	}
	r := newRun(plan(), o.seed, o.trace)
	if err := r.boot(horizon, true); err != nil {
		return nil, err
	}
	setupS := []float64{time.Since(start).Seconds()}
	c0 := r.snapshot(false)
	r.measure(r.end)
	c1 := r.snapshot(false)
	heap := liveHeapMB()
	r.check(c1)
	o2 := r.outcome()
	m := r.simMetrics(o2)
	for k, v := range r.wallMetrics(heap) {
		m[k] = v
	}
	if o.trace {
		for k, v := range r.layerMetrics(c0, c1, heap) {
			m[k] = v
		}
		m["trace.overhead_frac"] = sum(r.scaled(r.stepCost)[:ref.Steps])/ref.CostMS - 1
		probes, bad := runProbes(o.seed)
		for k, v := range probes {
			m[k] = v
		}
		for _, b := range bad {
			r.violate("%s", b)
		}
		if err := r.tr.write(o.traceOut, r.end); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	} else {
		// More set-ups, timed after everything else is measured: a booted
		// system can never be freed (its threads stay parked), so doing
		// these earlier would inflate the heap and GC work measured above.
		// Each starts right after a collection, so when the collector runs
		// during it does not depend on what ran before, and is scaled by a
		// calibration right after it; the first by the measured phase's
		// first calibration.
		if len(r.cal) > 0 {
			setupS[0] = atReference(setupS[0], r.cal[0])
		}
		for len(setupS) < o.setups {
			runtime.GC()
			t := time.Now()
			if err := newRun(plan(), o.seed, false).boot(horizon, false); err != nil {
				return nil, err
			}
			setupS = append(setupS, atReference(time.Since(t).Seconds(), calibrate()))
		}
		m["setup_s"] = quantile(setupS, 0.5)
	}
	rep.Metrics = m
	rep.Digest = fmt.Sprintf("%016x", r.digest(c1))
	rep.Attempted, rep.Failed = o2.attempted, o2.failed
	rep.Samples["startup"] = len(o2.startup)
	rep.Samples["failover"] = len(o2.failover)
	rep.Samples["vcr"] = int(o2.vcr)
	rep.Samples["opens"] = int(o2.decided)
	rep.Samples["steps"] = r.steps
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := checkDefs(defs, m); err != nil {
		return nil, err
	}
	rep.Violations = r.violations
	rep.Correct = len(r.violations) == 0
	return rep, nil
}

// digest fingerprints the run's behaviour: every viewer's outcome and the
// simulated counters of every layer. Wall-clock values stay out of it.
func (r *run) digest(c counters) uint64 {
	d := newDigest()
	for _, v := range r.p.viewers {
		d.int(int64(v.state), int64(v.tries), int64(v.got), int64(v.lost), int64(v.left), int64(v.holds),
			int64(v.first), int64(v.vcr), int64(v.vcrRefused), int64(v.node), int64(v.failoverAt),
			v.sharedChunk, v.stamped)
	}
	d.int(r.events, int64(r.genLate), int64(r.recTries), int64(r.recRefused), int64(r.recPartial), r.recPlanned, r.recDone)
	d.int(c.reads, c.stamps, c.readErrors, c.fallbacks, c.ioMiss, c.shed, c.diskOps,
		int64(c.diskBusy), int64(c.diskWait), int64(c.diskSeek), c.ufsCalls, c.preempt)
	d.str(fmt.Sprint(c.cluster))
	return d.sum()
}
