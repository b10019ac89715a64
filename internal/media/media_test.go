package media

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/ufs"
)

func sec(n int) sim.Time { return sim.Time(n) * time.Second }

func TestCBRGenerate(t *testing.T) {
	s := MPEG1().Generate("m", sec(10))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Chunks) != 300 {
		t.Fatalf("chunks = %d, want 300 (30fps * 10s)", len(s.Chunks))
	}
	rate := s.AvgRate()
	if rate < 0.98*1.5e6/8 || rate > 1.02*1.5e6/8 {
		t.Fatalf("avg rate = %.0f B/s, want ~187500", rate)
	}
	if d := s.TotalDuration(); d < sec(9) || d > sec(10)+time.Millisecond {
		t.Fatalf("duration = %v", d)
	}
}

func TestMPEG2Rate(t *testing.T) {
	s := MPEG2().Generate("m", sec(5))
	rate := s.AvgRate()
	if rate < 0.98*6e6/8 || rate > 1.02*6e6/8 {
		t.Fatalf("avg rate = %.0f B/s, want ~750000", rate)
	}
}

func TestCBRWorstCaseEqualsAvg(t *testing.T) {
	s := MPEG1().Generate("m", sec(10))
	worst := s.WorstCaseRate(500 * time.Millisecond)
	avg := s.AvgRate()
	if worst < avg*0.95 || worst > avg*1.1 {
		t.Fatalf("CBR worst-case %.0f should be close to avg %.0f", worst, avg)
	}
}

func TestVBRGenerate(t *testing.T) {
	rng := sim.NewEngine(5).RNG("vbr")
	p := VBRProfile{FrameRate: 30, MeanRate: 187500, Jitter: 0.2}
	s := p.Generate("v", sec(30), rng)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := s.AvgRate()
	if avg < 0.7*187500 || avg > 1.3*187500 {
		t.Fatalf("VBR avg rate = %.0f, want near 187500", avg)
	}
	// The GOP structure must make the worst-case window rate exceed the
	// average appreciably — that is the buffer-waste effect from §3.2.
	worst := s.WorstCaseRate(200 * time.Millisecond)
	if worst < 1.2*avg {
		t.Fatalf("VBR worst %.0f vs avg %.0f: expected bursty structure", worst, avg)
	}
}

func TestVBRDeterministicWithSeed(t *testing.T) {
	gen := func() int64 {
		rng := sim.NewEngine(9).RNG("vbr")
		return VBRProfile{FrameRate: 30, MeanRate: 1e5, Jitter: 0.3}.Generate("v", sec(5), rng).TotalSize()
	}
	if gen() != gen() {
		t.Fatal("same seed produced different VBR streams")
	}
}

func TestChunkAt(t *testing.T) {
	s := MPEG1().Generate("m", sec(2))
	frameDur := s.Chunks[0].Duration
	if s.ChunkAt(0) != 0 {
		t.Fatal("time 0 should map to chunk 0")
	}
	if got := s.ChunkAt(frameDur); got != 1 {
		t.Fatalf("ChunkAt(frameDur) = %d, want 1", got)
	}
	if got := s.ChunkAt(frameDur - 1); got != 0 {
		t.Fatalf("ChunkAt(frameDur-1) = %d, want 0", got)
	}
	if s.ChunkAt(-1) != -1 || s.ChunkAt(s.TotalDuration()) != -1 {
		t.Fatal("out-of-range times should map to -1")
	}
	last := len(s.Chunks) - 1
	if got := s.ChunkAt(s.TotalDuration() - 1); got != last {
		t.Fatalf("ChunkAt(end-1) = %d, want %d", got, last)
	}
}

func TestPropertyChunkAtConsistent(t *testing.T) {
	s := MPEG1().Generate("m", sec(5))
	f := func(tRaw uint32) bool {
		tm := sim.Time(tRaw) % s.TotalDuration()
		i := s.ChunkAt(tm)
		if i < 0 {
			return false
		}
		c := s.Chunks[i]
		return c.Timestamp <= tm && tm < c.Timestamp+c.Duration
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestControlRoundtrip(t *testing.T) {
	rng := sim.NewEngine(2).RNG("vbr")
	s := VBRProfile{FrameRate: 30, MeanRate: 2e5, Jitter: 0.25}.Generate("v", sec(7), rng)
	enc := EncodeControl(s)
	dec, err := DecodeControl("v", enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Chunks) != len(s.Chunks) {
		t.Fatalf("chunk count: %d vs %d", len(dec.Chunks), len(s.Chunks))
	}
	for i := range s.Chunks {
		if dec.Chunks[i] != s.Chunks[i] {
			t.Fatalf("chunk %d differs: %+v vs %+v", i, dec.Chunks[i], s.Chunks[i])
		}
	}
}

func TestDecodeControlErrors(t *testing.T) {
	if _, err := DecodeControl("x", []byte{1, 2, 3}); err == nil {
		t.Fatal("short data accepted")
	}
	enc := EncodeControl(MPEG1().Generate("m", sec(1)))
	if _, err := DecodeControl("x", enc[:len(enc)-4]); err == nil {
		t.Fatal("truncated data accepted")
	}
	enc[0] = 0xFF
	if _, err := DecodeControl("x", enc); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestDecodeControlRefusesInvalidTables encodes one table per rule of
// Validate, each broken at one chunk, and checks that DecodeControl refuses
// it with a *ChunkError naming that chunk and field. Before, these decoded
// and were caught only when the table reached a server's open.
func TestDecodeControlRefusesInvalidTables(t *testing.T) {
	for _, tc := range []struct {
		name  string
		chunk int
		field string
		edit  func(c []Chunk)
	}{
		{"negative-base-offset", 0, "offset", func(c []Chunk) {
			for i := range c {
				c[i].Offset -= c[0].Size + 1
			}
		}},
		{"offset-gap", 3, "offset", func(c []Chunk) { c[3].Offset += 7 }},
		{"timestamp-gap", 5, "timestamp", func(c []Chunk) { c[5].Timestamp++ }},
		{"zero-duration", 0, "duration", func(c []Chunk) { c[0].Duration = 0 }},
		{"negative-duration", 2, "duration", func(c []Chunk) { c[2].Duration = -c[2].Duration }},
		{"negative-size", 4, "size", func(c []Chunk) { c[4].Size = -1 }},
		{"size-past-int64", 1, "size", func(c []Chunk) { c[1].Size = math.MaxInt64 }},
		{"duration-past-int64", 1, "duration", func(c []Chunk) { c[1].Duration = math.MaxInt64 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := MPEG1().Generate("m", sec(1))
			tc.edit(s.Chunks)
			_, err := DecodeControl("m", EncodeControl(s))
			var ce *ChunkError
			if !errors.As(err, &ce) || ce.Chunk != tc.chunk || ce.Field != tc.field {
				t.Errorf("DecodeControl = %v, want a *ChunkError at chunk %d %s", err, tc.chunk, tc.field)
			}
		})
	}
}

func TestValidateCatchesCorruptTables(t *testing.T) {
	s := MPEG1().Generate("m", sec(1))
	s.Chunks[3].Offset += 7
	if s.Validate() == nil {
		t.Fatal("offset gap not caught")
	}
	s = MPEG1().Generate("m", sec(1))
	s.Chunks[5].Timestamp += 1
	if s.Validate() == nil {
		t.Fatal("timestamp gap not caught")
	}
	s = MPEG1().Generate("m", sec(1))
	s.Chunks[0].Duration = 0
	if s.Validate() == nil {
		t.Fatal("zero duration not caught")
	}
}

func TestStoreAndLoadFS(t *testing.T) {
	e := sim.NewEngine(1)
	g, pr := disk.ST32550N()
	g.Cylinders = 300
	g.Heads = 4
	d := disk.New(e, "sd0", g, pr)
	if _, err := ufs.Format(d, ufs.Options{}); err != nil {
		t.Fatal(err)
	}
	s := MPEG1().Generate("/movies/clip", sec(5))
	e.Spawn("setup", func(p *sim.Proc) {
		fs, err := ufs.Mount(p, d, ufs.Options{})
		if err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		if err := fs.Mkdir(p, "/movies"); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		if err := Store(p, fs, "/movies/clip", s); err != nil {
			t.Errorf("Store: %v", err)
			return
		}
		st, err := fs.Stat(p, "/movies/clip")
		if err != nil || st.Size != s.TotalSize() {
			t.Errorf("media file stat = %+v, %v", st, err)
		}
		got, err := LoadFS(p, fs, "/movies/clip")
		if err != nil {
			t.Errorf("LoadFS: %v", err)
			return
		}
		if len(got.Chunks) != len(s.Chunks) || got.TotalSize() != s.TotalSize() {
			t.Error("loaded chunk table differs")
		}
	})
	e.Run()
}

func TestEmptyStreamEdgeCases(t *testing.T) {
	s := &StreamInfo{Name: "empty"}
	if s.TotalSize() != 0 || s.TotalDuration() != 0 || s.AvgRate() != 0 {
		t.Fatal("empty stream should have zero aggregates")
	}
	if s.ChunkAt(0) != -1 {
		t.Fatal("empty stream ChunkAt should be -1")
	}
	if s.WorstCaseRate(time.Second) != 0 {
		t.Fatal("empty stream worst-case rate should be 0")
	}
	if err := s.Validate(); err != nil {
		t.Fatal("empty stream should validate")
	}
}
