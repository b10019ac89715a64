package core

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func frameChunk(i int, size int64) BufferedChunk {
	fd := sim.Time(time.Second) / 30
	return BufferedChunk{Index: i, Timestamp: sim.Time(i) * fd, Duration: fd, Size: size}
}

func TestTDBufferInsertGet(t *testing.T) {
	b := NewTDBuffer(1<<20, 50*time.Millisecond)
	for i := 0; i < 10; i++ {
		if !b.Insert(frameChunk(i, 1000)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if b.Len() != 10 || b.Bytes() != 10000 {
		t.Fatalf("Len=%d Bytes=%d", b.Len(), b.Bytes())
	}
	fd := sim.Time(time.Second) / 30
	c, ok := b.Get(3 * fd)
	if !ok || c.Index != 3 {
		t.Fatalf("Get(3*fd) = %+v, %v", c, ok)
	}
	// Mid-frame time still maps to the frame.
	c, ok = b.Get(3*fd + fd/2)
	if !ok || c.Index != 3 {
		t.Fatalf("Get mid-frame = %+v, %v", c, ok)
	}
	if _, ok := b.Get(100 * fd); ok {
		t.Fatal("Get beyond buffered range succeeded")
	}
	if b.GetHits != 2 || b.GetMisses != 1 {
		t.Fatalf("hits=%d misses=%d", b.GetHits, b.GetMisses)
	}
}

func TestTDBufferOverflowRefused(t *testing.T) {
	b := NewTDBuffer(2500, 0)
	if !b.Insert(frameChunk(0, 1000)) || !b.Insert(frameChunk(1, 1000)) {
		t.Fatal("inserts within capacity failed")
	}
	if b.Insert(frameChunk(2, 1000)) {
		t.Fatal("insert beyond capacity succeeded")
	}
	if b.Overflowed != 1 {
		t.Fatalf("Overflowed = %d, want 1", b.Overflowed)
	}
}

func TestTDBufferDiscardBefore(t *testing.T) {
	b := NewTDBuffer(1<<20, 0)
	fd := sim.Time(time.Second) / 30
	for i := 0; i < 30; i++ {
		b.Insert(frameChunk(i, 1000))
	}
	n := b.DiscardBefore(10 * fd) // frames 0-9 are obsolete
	if n != 10 {
		t.Fatalf("discarded %d, want 10", n)
	}
	if b.Len() != 20 || b.Bytes() != 20000 {
		t.Fatalf("after discard: Len=%d Bytes=%d", b.Len(), b.Bytes())
	}
	if _, ok := b.Get(5 * fd); ok {
		t.Fatal("discarded frame still readable")
	}
	if c, ok := b.Get(10 * fd); !ok || c.Index != 10 {
		t.Fatal("first surviving frame not readable")
	}
}

func TestTDBufferJitterWindow(t *testing.T) {
	// The discard rule is timestamp < Tnow - J; the caller computes that,
	// so a frame exactly J behind the clock survives.
	b := NewTDBuffer(1<<20, 100*time.Millisecond)
	fd := sim.Time(time.Second) / 30
	b.Insert(frameChunk(0, 100))
	logicalNow := 2 * fd
	b.DiscardBefore(logicalNow - b.Jitter())
	if b.Len() != 1 {
		t.Fatal("frame within jitter allowance was discarded")
	}
	b.DiscardBefore(4*fd - b.Jitter())
	if b.Len() != 0 {
		t.Fatal("frame beyond jitter allowance survived")
	}
}

func TestTDBufferLateDiscardCountsUnreadOnly(t *testing.T) {
	b := NewTDBuffer(1<<20, 0)
	fd := sim.Time(time.Second) / 30
	b.Insert(frameChunk(0, 100))
	b.Insert(frameChunk(1, 100))
	b.Get(0) // read frame 0
	b.DiscardBefore(2 * fd)
	if b.LateDiscard != 1 {
		t.Fatalf("LateDiscard = %d, want 1 (only the unread frame)", b.LateDiscard)
	}
	if b.Discarded != 2 {
		t.Fatalf("Discarded = %d, want 2", b.Discarded)
	}
}

func TestTDBufferReset(t *testing.T) {
	b := NewTDBuffer(1<<20, 0)
	for i := 0; i < 5; i++ {
		b.Insert(frameChunk(i, 500))
	}
	b.Reset()
	if b.Len() != 0 || b.Bytes() != 0 {
		t.Fatal("Reset did not empty the buffer")
	}
	if _, ok := b.Get(0); ok {
		t.Fatal("Get after Reset succeeded")
	}
}

func TestTDBufferPeakBytes(t *testing.T) {
	b := NewTDBuffer(1<<20, 0)
	fd := sim.Time(time.Second) / 30
	for i := 0; i < 8; i++ {
		b.Insert(frameChunk(i, 1000))
	}
	b.DiscardBefore(8 * fd)
	if b.PeakBytes != 8000 {
		t.Fatalf("PeakBytes = %d, want 8000", b.PeakBytes)
	}
	if b.Bytes() != 0 {
		t.Fatal("buffer should be empty after full discard")
	}
}

func TestTDBufferPeekDoesNotCount(t *testing.T) {
	b := NewTDBuffer(1<<20, 0)
	b.Insert(frameChunk(0, 100))
	if !b.Peek(0) {
		t.Fatal("Peek missed resident chunk")
	}
	if b.Peek(sim.Time(time.Hour)) {
		t.Fatal("Peek found non-resident chunk")
	}
	if b.GetHits != 0 || b.GetMisses != 0 {
		t.Fatal("Peek affected hit/miss counters")
	}
}

// Property: Bytes always equals the sum of resident chunk sizes, under any
// interleaving of insert/discard, and never exceeds capacity.
func TestPropertyTDBufferAccounting(t *testing.T) {
	f := func(ops []uint16) bool {
		b := NewTDBuffer(50000, 0)
		fd := sim.Time(time.Second) / 30
		next := 0
		var model []BufferedChunk
		for _, op := range ops {
			if op%3 != 0 { // insert twice as often as discard
				c := frameChunk(next, int64(op%4000)+1)
				next++
				if b.Insert(c) {
					model = append(model, c)
				}
			} else {
				cut := sim.Time(op%64) * fd
				b.DiscardBefore(cut)
				keep := model[:0]
				for _, c := range model {
					if c.Timestamp >= cut {
						keep = append(keep, c)
					}
				}
				model = keep
			}
			var sum int64
			for _, c := range model {
				sum += c.Size
			}
			if b.Bytes() != sum || b.Len() != len(model) || b.Bytes() > b.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// A steady stream's buffer traffic (insert the next frame, read it, discard
// the one behind the horizon) allocates nothing once the resident set and
// the pop scratch have reached their high-water marks.
func TestTDBufferSteadyStateAllocs(t *testing.T) {
	b := NewTDBuffer(1<<20, 0)
	fd := sim.Time(time.Second) / 30
	next := 0
	step := func() {
		b.Insert(frameChunk(next, 1000))
		b.Get(sim.Time(next) * fd)
		b.PopBefore(sim.Time(next-4) * fd)
		next++
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Fatalf("allocs per insert/get/pop = %v, want 0", got)
	}
	if b.LateDiscard != 0 {
		t.Fatalf("LateDiscard = %d, want 0: every frame was read", b.LateDiscard)
	}
}
