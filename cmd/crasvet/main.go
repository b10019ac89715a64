// Command crasvet runs the CRAS determinism and event-loop analyzers
// (internal/analysis) alongside the standard go vet passes, and exits
// non-zero on any unbaselined finding or stale baseline entry so CI can
// gate on it.
//
// Usage:
//
//	crasvet [-novet] [-list] [-json] [-baseline file] [packages]
//
// With no package patterns, it checks ./.... All matched packages are
// analyzed as one suite: per-package facts (wrapped sentinels, confined
// fields) and the thread-reachability call graph span the whole module, so
// a wrap in internal/media can flag a comparison in internal/ufs.
//
// Findings print as
//
//	file:line:col: [analyzer] message
//
// or, with -json, as a machine-readable report on stdout:
//
//	{"version":1,"findings":[{"analyzer":...,"file":...,"line":...,"col":...,"message":...}]}
//
// A finding can be sanctioned two ways. Permanently, with a directive
// comment on the same line or the line above:
//
//	//crasvet:allow <analyzer>[,<analyzer>...] -- reason
//
// Or temporarily, via the baseline: a JSON report (same format -json
// emits) listing known findings to tolerate while they are burned down.
// Baseline entries match on (analyzer, file, message) — line numbers are
// ignored so unrelated edits don't invalidate the file. By default
// crasvet.baseline.json is used when it exists; -baseline overrides the
// path and -baseline none disables baselining (use that when regenerating
// the file). Stale entries — baselined findings that no longer occur — are
// reported on stderr and fail the run, so a change that fixes a finding
// shrinks the baseline with it instead of letting it rot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/analysis"
)

// reportVersion is bumped if the JSON schema changes incompatibly.
const reportVersion = 1

// defaultBaseline is picked up from the working directory when present and
// no -baseline flag is given.
const defaultBaseline = "crasvet.baseline.json"

// finding is one diagnostic in the JSON report. The same shape serves as a
// baseline entry: Line and Col are informational there and ignored when
// matching.
type finding struct {
	Analyzer  string `json:"analyzer"`
	File      string `json:"file"`
	Line      int    `json:"line"`
	Col       int    `json:"col"`
	Message   string `json:"message"`
	Baselined bool   `json:"baselined,omitempty"`
}

// report is the top-level JSON document, for both -json output and the
// baseline file — crasvet -json -baseline none > crasvet.baseline.json
// round-trips.
type report struct {
	Version  int       `json:"version"`
	Findings []finding `json:"findings"`
}

// baselineKey ignores position-within-file so the baseline survives
// unrelated edits.
func baselineKey(f finding) string {
	return f.Analyzer + "\x00" + f.File + "\x00" + f.Message
}

func main() {
	novet := flag.Bool("novet", false, "skip running the standard `go vet` passes")
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit the findings as a JSON report on stdout")
	baselinePath := flag.String("baseline", "", "baseline `file` of tolerated findings (default crasvet.baseline.json if present; \"none\" disables)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: crasvet [-novet] [-list] [-json] [-baseline file] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Checks CRAS determinism invariants; see internal/analysis.\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	vetFailed := false

	// Standard vet passes first: crasvet is a superset of go vet.
	if !*novet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stderr // keep stdout clean for -json
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			vetFailed = true
		}
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fatalf("crasvet: %v", err)
	}
	typeErrors := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "crasvet: type error in %s: %v\n", pkg.Path, terr)
			typeErrors = true
		}
	}
	if typeErrors {
		os.Exit(2)
	}

	// One suite over every loaded package: facts and the call graph are
	// module-wide, which is the whole point of the interprocedural
	// analyzers.
	suite := analysis.NewSuite(pkgs)
	diags, err := suite.Run(analysis.All()...)
	if err != nil {
		fatalf("crasvet: %v", err)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatalf("crasvet: %v", err)
	}
	findings := make([]finding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil && !filepath.IsAbs(rel) {
			file = filepath.ToSlash(rel)
		}
		findings = append(findings, finding{
			Analyzer: d.Analyzer,
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}

	baseline, baselineFile := loadBaseline(*baselinePath)
	newCount, staleCount := applyBaseline(findings, baseline)

	if *jsonOut {
		out := report{Version: reportVersion, Findings: findings}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatalf("crasvet: encoding report: %v", err)
		}
	} else {
		for _, f := range findings {
			if f.Baselined {
				continue
			}
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}

	baselined := len(findings) - newCount
	if baselined > 0 {
		fmt.Fprintf(os.Stderr, "crasvet: %d finding(s) tolerated by baseline %s\n", baselined, baselineFile)
	}
	if staleCount > 0 {
		fmt.Fprintf(os.Stderr, "crasvet: %d stale baseline entr(y/ies) in %s — findings fixed; shrink the baseline\n", staleCount, baselineFile)
	}
	if newCount > 0 {
		fmt.Fprintf(os.Stderr, "crasvet: %d finding(s)\n", newCount)
	}
	if vetFailed || newCount > 0 || staleCount > 0 {
		os.Exit(1)
	}
}

// loadBaseline resolves the baseline flag: explicit path, "none"/"" to
// disable (the empty default only disables when crasvet.baseline.json is
// absent), or the conventional file when present. Returns counts of
// tolerated (analyzer, file, message) keys.
func loadBaseline(path string) (map[string]int, string) {
	switch path {
	case "none":
		return nil, ""
	case "":
		if _, err := os.Stat(defaultBaseline); err != nil {
			return nil, ""
		}
		path = defaultBaseline
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("crasvet: reading baseline: %v", err)
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		fatalf("crasvet: parsing baseline %s: %v", path, err)
	}
	if r.Version != reportVersion {
		fatalf("crasvet: baseline %s has version %d, want %d — regenerate it", path, r.Version, reportVersion)
	}
	keys := map[string]int{}
	for _, f := range r.Findings {
		keys[baselineKey(f)]++
	}
	return keys, path
}

// applyBaseline marks tolerated findings in place and reports how many new
// findings remain and how many baseline entries went unused (fixed).
func applyBaseline(findings []finding, baseline map[string]int) (newCount, staleCount int) {
	for i := range findings {
		k := baselineKey(findings[i])
		if baseline[k] > 0 {
			baseline[k]--
			findings[i].Baselined = true
		} else {
			newCount++
		}
	}
	for _, n := range baseline {
		staleCount += n
	}
	return newCount, staleCount
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
