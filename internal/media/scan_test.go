package media

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// worstCaseRateWalk is WorstCaseRate as it was before Scan shared its
// window: the oracle for the rate Scan measures. It indexes past the table
// when the last chunk alone is longer than the interval, so callers keep
// such tables away from it.
func worstCaseRateWalk(s *StreamInfo, interval sim.Time) float64 {
	if len(s.Chunks) == 0 || interval <= 0 {
		return 0
	}
	maxBytes := int64(0)
	j := 0
	var sum int64
	for i := range s.Chunks {
		sum += s.Chunks[i].Size
		for s.Chunks[i].Timestamp+s.Chunks[i].Duration-s.Chunks[j].Timestamp > interval {
			sum -= s.Chunks[j].Size
			j++
		}
		if sum > maxBytes {
			maxBytes = sum
		}
	}
	return float64(maxBytes) / interval.Seconds()
}

// TestScanMatchesSeparateWalks checks Scan, the one walk an open makes of
// a client's chunk table, against the three walks it replaced: the same
// error as Validate (itself now a Scan), and on a valid table the same
// worst-case rate, bit for bit, as the old window walk and the same
// largest chunk as a plain scan. Tables are CBR and VBR at several lengths
// and intervals, some broken at one chunk.
func TestScanMatchesSeparateWalks(t *testing.T) {
	e := sim.NewEngine(7)
	var tables []*StreamInfo
	for i, d := range []sim.Time{sec(1), sec(3), sec(7)} {
		tables = append(tables, MPEG1().Generate("cbr", d), MPEG2().Generate("cbr2", d))
		v := VBRProfile{FrameRate: 24 + 6*i, MeanRate: 2e5, Jitter: 0.3}
		tables = append(tables, v.Generate("vbr", d, e.RNG(fmt.Sprintf("vbr%d", i))))
	}
	for _, interval := range []sim.Time{0, 100 * time.Millisecond, 500 * time.Millisecond, sec(1), sec(2)} {
		for ti, s := range tables {
			worst, maxChunk, err := s.Scan(interval)
			if err != nil {
				t.Fatalf("table %d: Scan refused a generated table: %v", ti, err)
			}
			var wantMax int64
			for _, c := range s.Chunks {
				wantMax = max(wantMax, c.Size)
			}
			if want := worstCaseRateWalk(s, interval); worst != want || maxChunk != wantMax {
				t.Errorf("table %d interval %v: Scan = (%v, %d), separate walks = (%v, %d)",
					ti, interval, worst, maxChunk, want, wantMax)
			}
			if got := s.WorstCaseRate(interval); got != worst {
				t.Errorf("table %d interval %v: WorstCaseRate = %v, Scan = %v", ti, interval, got, worst)
			}
			// Broken copies: Scan refuses with Validate's error.
			bad := &StreamInfo{Name: s.Name, Chunks: append([]Chunk(nil), s.Chunks...)}
			bad.Chunks[ti%len(bad.Chunks)].Offset++
			_, _, err = bad.Scan(interval)
			var ce *ChunkError
			if !errors.As(err, &ce) || err.Error() != bad.Validate().Error() {
				t.Errorf("table %d: Scan of a broken table = %v, Validate = %v", ti, err, bad.Validate())
			}
		}
	}
}

// TestWorstCaseRateLongLastChunk: a last chunk longer than the interval
// empties the window, as a longer chunk anywhere else always has; the walk
// used to index past the table there.
func TestWorstCaseRateLongLastChunk(t *testing.T) {
	long := &StreamInfo{Chunks: []Chunk{
		{Timestamp: 0, Duration: sec(1) / 2, Size: 100, Offset: 0},
		{Timestamp: sec(1) / 2, Duration: sec(2), Size: 1000, Offset: 100},
	}}
	padded := &StreamInfo{Chunks: append(append([]Chunk(nil), long.Chunks...),
		Chunk{Timestamp: sec(5) / 2, Duration: sec(1) / 10, Size: 0, Offset: 1100})}
	want := worstCaseRateWalk(padded, sec(1))
	if got := long.WorstCaseRate(sec(1)); got != want {
		t.Errorf("WorstCaseRate = %v, want %v (the same table with a short chunk after the long one)", got, want)
	}
	if got, _, err := long.Scan(sec(1)); err != nil || got != want {
		t.Errorf("Scan = %v, %v; want %v, nil", got, err, want)
	}
}
