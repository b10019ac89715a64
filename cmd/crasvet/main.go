// Command crasvet runs the CRAS determinism and event-loop analyzers
// (internal/analysis) alongside the standard go vet passes, and exits
// non-zero on any finding so CI can gate on it.
//
// Usage:
//
//	crasvet [-novet] [-list] [-json] [packages]
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
// A finding is sanctioned only by a directive comment, with its reason,
// on the same line or the line above:
//
//	//crasvet:allow <analyzer>[,<analyzer>...] -- reason
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

// finding is one diagnostic in the JSON report.
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// report is the top-level JSON document -json prints.
type report struct {
	Version  int       `json:"version"`
	Findings []finding `json:"findings"`
}

func main() {
	novet := flag.Bool("novet", false, "skip running the standard `go vet` passes")
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit the findings as a JSON report on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: crasvet [-novet] [-list] [-json] [packages]\n\n")
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

	if *jsonOut {
		out := report{Version: reportVersion, Findings: findings}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatalf("crasvet: encoding report: %v", err)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}

	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "crasvet: %d finding(s)\n", len(findings))
	}
	if vetFailed || len(findings) > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
