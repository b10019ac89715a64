package lab

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/media"
)

// BenchmarkBuildStripe times one machine set-up as the benchmark's
// cold-tail workload does it: mkfs on a 4-disk stripe, 64 MPEG-1 titles of
// 70 s preallocated with their control files, a sync, and the boot of the
// Unix server and CRAS. With -benchmem (or its ReportAllocs) it shows the
// bytes a set-up allocates, which should stay close to what the booted
// machine keeps.
func BenchmarkBuildStripe(b *testing.B) {
	movies := make([]Movie, 64)
	for i := range movies {
		path := fmt.Sprintf("/movies/m%02d", i)
		movies[i] = Movie{Path: path, Info: media.MPEG1().Generate(path, 70*time.Second)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		booted := false
		m := Build(Setup{Seed: 1, Disks: 4, Movies: movies}, func(m *Machine) {
			booted = true
			m.Eng.Stop()
		})
		m.Eng.Run()
		if err := m.Err(); err != nil || !booted {
			b.Fatalf("set-up did not boot: %v", err)
		}
	}
}
