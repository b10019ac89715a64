package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/sim"
)

func TestZipfPickerLaw(t *testing.T) {
	// Uniform at alpha 0: every rank equally likely.
	z := NewZipfPicker(4, 0)
	for r := 0; r < 4; r++ {
		u := (float64(r) + 0.5) / 4
		if got := z.Pick(u); got != r {
			t.Errorf("alpha 0: Pick(%.3f) = %d, want %d", u, got, r)
		}
	}
	// Skewed at alpha 1.1: rank 0 takes the largest share, monotonically
	// shrinking down the tail.
	z = NewZipfPicker(6, 1.1)
	counts := make([]int, 6)
	const n = 10000
	for i := 0; i < n; i++ {
		counts[z.Pick((float64(i)+0.5)/n)]++ // a uniform grid, no RNG needed
	}
	for r := 1; r < 6; r++ {
		if counts[r] > counts[r-1] {
			t.Errorf("alpha 1.1: rank %d drawn %d > rank %d drawn %d", r, counts[r], r-1, counts[r-1])
		}
	}
	if counts[0] < n/3 {
		t.Errorf("alpha 1.1: top rank drew only %d/%d", counts[0], n)
	}
}

// A one-wave batched audience is a plain Zipf population: its script is
// one Pick draw then one arrival draw per viewer, every admitted viewer
// plays, and at a skewed alpha repeat viewers of the hot title ride the
// interval cache.
func TestZipfViewersRideCache(t *testing.T) {
	const nMovies, nClients, spread = 3, 6, 3 * time.Second
	var infos []*media.StreamInfo
	var paths []string
	var movies []lab.Movie
	for _, p := range []string{"/z0", "/z1", "/z2"} {
		info := media.MPEG1().Generate(p, 8*time.Second)
		infos = append(infos, info)
		paths = append(paths, p)
		movies = append(movies, lab.Movie{Path: p, Info: info})
	}
	var outs []*ViewerOutcome
	m := lab.Build(lab.Setup{
		Seed: 3, DiskCylinders: 600,
		CRAS:   core.Config{CacheBudget: 16 << 20},
		Movies: movies,
	}, func(m *lab.Machine) {
		outs = LaunchBatchedViewers(m.Kernel, m.CRAS, infos, paths,
			m.Eng.RNG("zipf"), BatchedViewerConfig{
				Clients: nClients, Alpha: 1.1, WaveSpread: spread,
				Player: PlayerConfig{MaxFrames: 60},
			})
	})

	for ran := sim.Time(0); ran < 60*time.Second; ran += time.Second {
		m.Run(time.Second)
		done := true
		for _, o := range outs {
			if !o.Stats.Done {
				done = false
			}
		}
		if done {
			break
		}
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}

	// The script must replay a direct draw from a same-named RNG: per
	// viewer, the Zipf pick first, then the arrival offset.
	rng := sim.NewEngine(3).RNG("zipf")
	picker := NewZipfPicker(nMovies, 1.1)
	for i, o := range outs {
		movie := picker.Pick(rng.Float64())
		at := rng.DurationRange(0, spread)
		if o.Movie != movie || o.At != at {
			t.Fatalf("viewer %d scripted (%d, %v), direct draw gives (%d, %v)", i, o.Movie, o.At, movie, at)
		}
	}

	admitted, cacheBacked := 0, 0
	byMovie := map[int]int{}
	for i, o := range outs {
		if !o.Stats.Done {
			t.Fatalf("viewer %d never finished", i)
		}
		byMovie[o.Movie]++
		if !o.Admitted {
			continue
		}
		admitted++
		if o.CacheBacked {
			cacheBacked++
		}
		if o.Stats.Obtained == 0 {
			t.Errorf("viewer %d admitted but obtained nothing", i)
		}
	}
	if admitted != nClients {
		t.Errorf("admitted %d/%d on an unloaded machine", admitted, nClients)
	}
	// Alpha 1.1 over 3 titles with 6 clients collides with near-certainty
	// under this fixed seed; a collision inside the overlap window must
	// have attached to the cache.
	if byMovie[0] < 2 {
		t.Fatalf("seed no longer collides on the hot title: %v", byMovie)
	}
	if cacheBacked == 0 {
		t.Error("no viewer rode the interval cache")
	}
	if m.CRAS.Stats().CacheHits == 0 {
		t.Error("no cache hits across the population")
	}
}
