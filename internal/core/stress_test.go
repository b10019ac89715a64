package core

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// A VBR variant of the session fuzzer: bursty chunk sizes stress the
// worst-case-sized buffer through seeks, rate changes and pauses.
func TestPropertyVBRSessionOpsNeverWedge(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	f := func(ops []uint8, seedRaw uint8) bool {
		if len(ops) > 10 {
			ops = ops[:10]
		}
		ok := true
		profile := media.VBRProfile{FrameRate: 30, MeanRate: 300000, Jitter: 0.35}
		// Seed-varied VBR stream per case.
		rng := sim.NewEngine(31 + int64(seedRaw)).RNG("vbr")
		movie := profile.Generate("/v", 15*time.Second, rng)
		newBed(t, 7, ufs.Options{}, Config{BufferBudget: 32 << 20},
			map[string]*media.StreamInfo{"/v": movie},
			func(b *bed, th *rtm.Thread) {
				b.cras.reads.poison = true
				h, err := b.cras.Open(th, movie, "/v", OpenOptions{})
				if err != nil {
					return // admission may refuse high worst-case rates; fine
				}
				for _, op := range ops {
					switch op % 5 {
					case 0:
						h.Start(th)
					case 1:
						h.Stop(th)
					case 2:
						h.Seek(th, time.Duration(op%14)*time.Second)
					case 3:
						h.SetRate(th, []float64{0.5, 1, 2}[int(op)%3])
					case 4:
						th.Sleep(time.Duration(op%4) * 400 * time.Millisecond)
					}
				}
				th.Sleep(2 * time.Second)
				if h.BufferStats().Overflowed != 0 {
					t.Logf("VBR overflow after %v (seed %d)", ops, seedRaw)
					ok = false
				}
				h.Close(th)
			})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
