package media

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/ufs"
)

// encodeControlFresh and encodeIndexFresh are the encoders as they were
// before they appended into a caller's buffer: each sized a fresh buffer
// and filled it in place. They stay here, copied, as the reference the
// append-style encoders must agree with.
func encodeControlFresh(s *StreamInfo) []byte {
	out := make([]byte, 8+32*len(s.Chunks))
	le := binary.LittleEndian
	le.PutUint32(out[0:], ctlMagic)
	le.PutUint32(out[4:], uint32(len(s.Chunks)))
	for i, c := range s.Chunks {
		base := 8 + 32*i
		le.PutUint64(out[base:], uint64(c.Timestamp))
		le.PutUint64(out[base+8:], uint64(c.Duration))
		le.PutUint64(out[base+16:], uint64(c.Size))
		le.PutUint64(out[base+24:], uint64(c.Offset))
	}
	return out
}

func encodeIndexFresh(c *Container) []byte {
	out := make([]byte, c.indexSize())
	le := binary.LittleEndian
	le.PutUint32(out[0:], containerMagic)
	le.PutUint32(out[4:], 1)
	le.PutUint32(out[8:], uint32(len(c.Tracks)))
	pos := 12
	tracks, _, _ := c.Layout()
	for i, tr := range c.Tracks {
		le.PutUint64(out[pos:], uint64(tracks[i].Chunks[0].Offset))
		le.PutUint64(out[pos+8:], uint64(tr.Info.TotalSize()))
		pos += 16
		le.PutUint64(out[pos:], uint64(len(tr.Kind)))
		pos += 8
		copy(out[pos:], tr.Kind)
		pos += len(tr.Kind)
		le.PutUint64(out[pos:], uint64(len(tr.Info.Chunks)))
		pos += 8
		for _, ch := range tr.Info.Chunks {
			le.PutUint64(out[pos:], uint64(ch.Timestamp))
			le.PutUint64(out[pos+8:], uint64(ch.Duration))
			le.PutUint64(out[pos+16:], uint64(ch.Size))
			le.PutUint64(out[pos+24:], uint64(ch.Offset))
			pos += 32
		}
	}
	return out
}

// randomTable returns a valid chunk table of n chunks with random sizes
// and durations; the first chunk starts at time zero and a random offset.
func randomTable(rng *rand.Rand, name string, n int) *StreamInfo {
	s := &StreamInfo{Name: name, Chunks: make([]Chunk, n)}
	ts, off := sim.Time(0), rng.Int63n(1<<20)
	for i := range s.Chunks {
		d, size := sim.Time(1+rng.Int63n(1<<30)), 1+rng.Int63n(1<<18)
		s.Chunks[i] = Chunk{Timestamp: ts, Duration: d, Size: size, Offset: off}
		ts, off = ts+d, off+size
	}
	return s
}

// dirty returns a buffer of n bytes of 0xA5, so an encoder that skips a
// byte it should write (padding included) leaves it showing.
func dirty(n int) []byte { return bytes.Repeat([]byte{0xA5}, n) }

// TestAppendEncodersMatchFreshEncoders encodes random chunk tables and
// containers with the append-style encoders — into nothing, into a dirty
// buffer larger than needed, and after a prefix that must survive — and
// requires the bytes the fresh-buffer encoders produce.
func TestAppendEncodersMatchFreshEncoders(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	for i := 0; i < 200; i++ {
		s := randomTable(rng, "/t", rng.Intn(300))
		want := encodeControlFresh(s)
		if got := EncodeControl(s); !bytes.Equal(got, want) {
			t.Fatalf("table %d: EncodeControl differs from the fresh encoder", i)
		}
		if got := appendControl(dirty(len(want) + 1 + rng.Intn(5000))[:0], s); !bytes.Equal(got, want) {
			t.Fatalf("table %d: appendControl into a dirty buffer differs", i)
		}
		prefix := []byte("prefix")
		if got := appendControl(prefix, s); string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
			t.Fatalf("table %d: appendControl after a prefix differs", i)
		}

		c := &Container{Name: fmt.Sprintf("/c%d", i)}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			kind := string(bytes.Repeat([]byte{'a' + byte(rng.Intn(26))}, rng.Intn(12)))
			c.Tracks = append(c.Tracks, Track{Kind: kind, Info: randomTable(rng, kind, 1+rng.Intn(400))})
		}
		want = encodeIndexFresh(c)
		if got := c.encodeIndex(); !bytes.Equal(got, want) {
			t.Fatalf("container %d: encodeIndex differs from the fresh encoder", i)
		}
		if got := c.appendIndex(dirty(len(want) + 1 + rng.Intn(3*ufs.BlockSize))[:0]); !bytes.Equal(got, want) {
			t.Fatalf("container %d: appendIndex into a dirty buffer differs", i)
		}
		if got := c.appendIndex(prefix); string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
			t.Fatalf("container %d: appendIndex after a prefix differs", i)
		}
	}
}

// TestAppendEncodersReuseTheBuffer checks that the append-style encoders
// allocate nothing when the caller's buffer is big enough.
func TestAppendEncodersReuseTheBuffer(t *testing.T) {
	s := MPEG1().Generate("/m", 10*sec(1))
	c := testContainer(10 * sec(1))
	buf := make([]byte, 0, 1<<20)
	if n := testing.AllocsPerRun(10, func() { buf = appendControl(buf[:0], s) }); n != 0 {
		t.Errorf("appendControl: %v allocations into a big enough buffer", n)
	}
	if n := testing.AllocsPerRun(10, func() { buf = c.appendIndex(buf[:0]) }); n != 0 {
		t.Errorf("appendIndex: %v allocations into a big enough buffer", n)
	}
}
