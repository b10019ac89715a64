package main

import "testing"

func TestApplyBaselineCounts(t *testing.T) {
	f := func(analyzer, file, msg string) finding {
		return finding{Analyzer: analyzer, File: file, Line: 7, Message: msg}
	}
	findings := []finding{
		f("hotalloc", "a.go", "append grows"),
		f("hotalloc", "a.go", "append grows"),
		f("simclock", "b.go", "time.Now"),
	}
	baseline := map[string]int{
		baselineKey(f("hotalloc", "a.go", "append grows")): 3, // one more than occurs
		baselineKey(f("hotalloc", "c.go", "make")):         1, // fixed entirely
	}
	newCount, staleCount := applyBaseline(findings, baseline)
	if newCount != 1 {
		t.Errorf("newCount = %d, want 1 (the unbaselined simclock finding)", newCount)
	}
	if staleCount != 2 {
		t.Errorf("staleCount = %d, want 2 (one surplus a.go entry, the c.go entry)", staleCount)
	}
	for i, want := range []bool{true, true, false} {
		if findings[i].Baselined != want {
			t.Errorf("findings[%d].Baselined = %v, want %v", i, findings[i].Baselined, want)
		}
	}

	// Line numbers do not take part in matching: a baselined finding that
	// moved is still tolerated and leaves nothing stale.
	moved := []finding{{Analyzer: "hotalloc", File: "a.go", Line: 99, Message: "append grows"}}
	newCount, staleCount = applyBaseline(moved, map[string]int{baselineKey(findings[0]): 1})
	if newCount != 0 || staleCount != 0 {
		t.Errorf("moved finding: new %d stale %d, want 0 0", newCount, staleCount)
	}
}
