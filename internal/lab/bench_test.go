package lab

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/media"
)

// titles makes n MPEG-1 titles of 70 s, named from the format.
func titles(n int, format string) []Movie {
	movies := make([]Movie, n)
	for i := range movies {
		path := fmt.Sprintf(format, i)
		movies[i] = Movie{Path: path, Info: media.MPEG1().Generate(path, 70*time.Second)}
	}
	return movies
}

// stripeSetup is the set-up of the benchmark's cold-tail workload: 64
// titles of 70 s on a 4-disk stripe.
func stripeSetup() Setup {
	return Setup{Seed: 1, Disks: 4, Movies: titles(64, "/movies/m%02d")}
}

// nodeSetup is the set-up of one node of the benchmark's cluster-failover
// workload: 32 titles of 70 s on one disk, with the node's RAM budgets.
func nodeSetup() Setup {
	return Setup{
		Seed:   1,
		Movies: titles(32, "/m%02d"),
		CRAS: core.Config{
			BufferBudget: 16 << 20, CacheBudget: 8 << 20, PrefixBudget: 16 << 20,
			BatchWindow: 2 * time.Second,
		},
	}
}

// build runs one set-up through mkfs, the titles' layout, a sync and the
// boot of the Unix server and CRAS, and steps no further than the boot.
func build(tb testing.TB, s Setup) *Machine {
	booted := false
	m := Build(s, func(*Machine) { booted = true })
	for !booted && m.Eng.Step() {
	}
	if err := m.Err(); err != nil || !booted {
		tb.Fatalf("set-up did not boot: %v", err)
	}
	return m
}

// BenchmarkBuildStripe times one machine set-up as the benchmark's
// cold-tail workload does it: mkfs on a 4-disk stripe, 64 MPEG-1 titles of
// 70 s preallocated with their control files, a sync, and the boot of the
// Unix server and CRAS. With -benchmem (or its ReportAllocs) it shows the
// bytes a set-up allocates, which should stay close to what the booted
// machine keeps.
func BenchmarkBuildStripe(b *testing.B) {
	s := stripeSetup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		build(b, s)
	}
}

// BenchmarkBuildNode times the set-up of one cluster-failover node: mkfs
// on one disk, 32 titles of 70 s, a sync and the boot.
func BenchmarkBuildNode(b *testing.B) {
	s := nodeSetup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		build(b, s)
	}
}

// TestBuildAllocations bounds the cost of the two benchmarked set-ups in
// deterministic counts: the heap allocations of one set-up, which one
// buffer per stored sector would multiply, and the block allocator's
// steps, which one step per placed block would multiply. Each bound is
// the count measured when it was set (ten runs gave the same count,
// within 1) plus 1.5% for allocations, which covers the race detector's
// extra 1%, and 1% for steps (README, Performance). A change that lowers
// a count lowers its bound.
func TestBuildAllocations(t *testing.T) {
	for _, c := range []struct {
		name   string
		setup  func() Setup
		allocs float64 // allocations per set-up
		steps  int64   // allocator steps per set-up
	}{
		{"BuildStripe", stripeSetup, 5415 + 81, 1632 + 16},
		{"BuildNode", nodeSetup, 3365 + 50, 817 + 8},
	} {
		s := c.setup()
		allocs := testing.AllocsPerRun(3, func() { build(t, s) })
		steps := build(t, s).FS.AllocSteps()
		t.Logf("%s: %.0f allocations (bound %.0f), %d allocator steps (bound %d)", c.name, allocs, c.allocs, steps, c.steps)
		if allocs > c.allocs {
			t.Errorf("%s: %.0f allocations per set-up, bound %.0f", c.name, allocs, c.allocs)
		}
		if steps > c.steps {
			t.Errorf("%s: %d allocator steps per set-up, bound %d", c.name, steps, c.steps)
		}
	}
}
