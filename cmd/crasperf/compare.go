package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchmarkFile is BENCHMARK.json's workloads and metrics.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readReports reads the run reports in a JSON-lines file, skipping every
// other line (a file of whole crasperf outputs works too).
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var line struct {
			Report *report `json:"report"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Report != nil {
			out = append(out, *line.Report)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run reports", path)
	}
	return out, nil
}

// values collects one metric of one workload across the runs of a file.
func values(reps []report, workload, metric string) []float64 {
	var vs []float64
	for _, r := range reps {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, v)
		}
	}
	return vs
}

// verdict compares two sets of runs of one metric. worse is the change of
// the median in the bad direction, as a share of the base median. A side
// whose quartile spread exceeds the bound cannot resolve a change of that
// size, unless every new run beats every base run.
func verdict(base, neu []float64, better string, bound float64) (worse float64, v string) {
	bMed, bSpread := spread(base)
	nMed, nSpread := spread(neu)
	switch {
	case bMed != 0:
		worse = (nMed - bMed) / math.Abs(bMed)
	case nMed != 0:
		worse = math.Copysign(math.Inf(1), nMed)
	}
	if better == "higher" {
		worse = -worse
	}
	bLo, bHi := slices.Min(base), slices.Max(base)
	nLo, nHi := slices.Min(neu), slices.Max(neu)
	allBetter := (better == "lower" && nHi < bLo) || (better == "higher" && nLo > bHi)
	switch {
	case allBetter && -worse > bound:
		return worse, "improved"
	case bSpread > bound || nSpread > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "worse"
	case -worse > bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

// compareReports prints, for every (metric, workload) both files measured,
// the medians and a verdict under BENCHMARK.json's direction and bound.
// Per-layer metrics have no bound; the base runs' own quartile spread
// serves as one. It ends with each side's share of failed operations.
func compareReports(w io.Writer, benchPath, basePath, newPath string) error {
	b, err := readBenchmark(benchPath)
	if err != nil {
		return err
	}
	base, err := readReports(basePath)
	if err != nil {
		return err
	}
	neu, err := readReports(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-17s %-34s %13s %13s %9s  %s\n", "workload", "metric", "base", "new", "worse", "verdict")
	row := func(wl, name, better string, bound float64, perLayer bool) {
		bv, nv := values(base, wl, name), values(neu, wl, name)
		if len(bv) == 0 || len(nv) == 0 {
			return
		}
		if perLayer {
			_, bound = spread(bv)
		}
		worse, v := verdict(bv, nv, better, bound)
		fmt.Fprintf(w, "%-17s %-34s %13.6g %13.6g %+8.2f%%  %s (n=%d/%d, bound %.1f%%)\n",
			wl, name, quantile(bv, 0.5), quantile(nv, 0.5), 100*worse, v, len(bv), len(nv), 100*bound)
	}
	for _, wl := range b.Workloads {
		for _, d := range b.EndToEnd {
			row(wl.Name, d.Name, d.Better, d.Bound, false)
		}
		for _, d := range b.PerLayer {
			row(wl.Name, d.Name, d.Better, 0, true)
		}
	}
	for _, side := range []struct {
		name string
		reps []report
	}{{"base", base}, {"new", neu}} {
		var att, fail int64
		for _, r := range side.reps {
			att += r.Attempted
			fail += r.Failed
		}
		fmt.Fprintf(w, "failed operations, %s: %d of %d (%.4f%%) over %d runs\n", side.name, fail, att, 100*ratio(fail, att), len(side.reps))
	}
	return nil
}
