package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestSimClock(t *testing.T) {
	analysistest.Run(t, "testdata/src/simclock", analysis.SimClock)
}

func TestSimClockScope(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/core": true,
		"repro/internal/expt": true,
		"repro/internal/rtm":  true,
		"repro/internal/sim":  false, // the engine owns the clock
		"repro/internal/lab":  false,
		"repro":               false,
		"repro/cmd/crasbench": false,
	} {
		if got := analysis.SimClock.Scope(path); got != want {
			t.Errorf("SimClock.Scope(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestRNGSource(t *testing.T) {
	analysistest.Run(t, "testdata/src/rngsource", analysis.RNGSource)
}

func TestRNGSourceExemptsSimRNG(t *testing.T) {
	// The same math/rand import is sanctioned when it lives in a file named
	// rng.go inside a package path ending in internal/sim.
	analysistest.RunAs(t, "testdata/src/rngexempt", "repro/internal/sim", analysis.RNGSource)
}

func TestRNGSourceFlagsRNGFileOutsideSim(t *testing.T) {
	// The same code as the rngexempt fixture — a file named rng.go importing
	// math/rand — is flagged when its package path does not end in
	// internal/sim: the file name alone buys nothing.
	analysistest.Run(t, "testdata/src/rngflagged", analysis.RNGSource)
}

func TestEventLoop(t *testing.T) {
	analysistest.Run(t, "testdata/src/eventloop", analysis.EventLoop)
}

func TestEventLoopScope(t *testing.T) {
	if analysis.EventLoop.Scope("repro/internal/sim") {
		t.Error("eventloop must not run on the engine package itself")
	}
	if !analysis.EventLoop.Scope("repro/internal/core") {
		t.Error("eventloop must run on internal/core")
	}
}

func TestIOErrCheck(t *testing.T) {
	analysistest.Run(t, "testdata/src/ioerrcheck", analysis.NewIOErrCheck("ioerrcheck/fakedisk"))
}

func TestPortBound(t *testing.T) {
	analysistest.Run(t, "testdata/src/portbound", analysis.NewPortBound("portbound/fakertm"))
}

func TestGoroConfine(t *testing.T) {
	analysistest.RunSuite(t, "testdata/src/goroconfine", analysis.GoroConfine)
}

// TestGoroConfineHandlerRoots proves the cost and message callbacks handed
// to rtm.Kernel.NewHandler are thread roots: a handler thread runs them, so
// they (and what they call) may touch confined state, as a NewThread body
// may.
func TestGoroConfineHandlerRoots(t *testing.T) {
	analysistest.RunSuite(t, "testdata/src/handlerroot", analysis.GoroConfine)
}

// TestGoroConfineCrossPackageFacts proves a ConfinedFact exported while
// gathering a helper package is honored when analyzing an importer that
// never sees the annotation text.
func TestGoroConfineCrossPackageFacts(t *testing.T) {
	analysistest.RunSuite(t, "testdata/src/confinedx", analysis.GoroConfine)
}

func TestHotAlloc(t *testing.T) {
	analysistest.RunSuite(t, "testdata/src/hotalloc", analysis.HotAlloc)
}

// TestErrCmp also covers module-wide fact flow against import order: the
// store helper package's own comparison is flagged because the main
// fixture package (its importer) wraps store's errors.
func TestErrCmp(t *testing.T) {
	analysistest.RunSuite(t, "testdata/src/errcmp", analysis.ErrCmp)
}

// TestSuiteCleanOnOwnPackage is an integration test of the loader and the
// full suite: the analysis package itself must load, type-check without
// errors, and come back clean.
func TestSuiteCleanOnOwnPackage(t *testing.T) {
	pkgs, err := analysis.Load(".", "repro/internal/analysis")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load returned %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	for _, a := range analysis.All() {
		if a.Scope != nil && !a.Scope(pkg.Path) {
			continue
		}
		diags, err := pkg.Run(a)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, d := range diags {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}
