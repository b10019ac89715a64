// Package media models continuous-media files the way CRAS sees them: a
// large data file holding the frames, plus a chunk table (timestamp,
// duration, size, offset per chunk) that the paper keeps "in a control file
// separate from the continuous media data file". The chunk table is what an
// application hands to CRAS at crs_open time so the server can schedule
// pre-fetches and discard obsolete data.
//
// Profiles generate CBR streams matching the evaluation's workloads (an
// MPEG1-like 1.5 Mb/s stream and an MPEG2-like 6 Mb/s stream) and VBR
// streams with an I/P/B group-of-pictures size pattern, which exercise the
// buffer-waste problem the paper discusses in Section 3.2.
package media

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/sim"
)

// Chunk is one schedulable unit of a stream — for video, one frame.
type Chunk struct {
	Timestamp sim.Time // media time at which the chunk becomes current
	Duration  sim.Time
	Size      int64 // bytes in the media file
	Offset    int64 // byte offset in the media file
}

// StreamInfo is a stream's complete chunk table.
type StreamInfo struct {
	Name   string
	Chunks []Chunk
}

// TotalSize returns the media file size in bytes.
func (s *StreamInfo) TotalSize() int64 {
	if len(s.Chunks) == 0 {
		return 0
	}
	last := s.Chunks[len(s.Chunks)-1]
	return last.Offset + last.Size
}

// TotalDuration returns the media duration.
func (s *StreamInfo) TotalDuration() sim.Time {
	if len(s.Chunks) == 0 {
		return 0
	}
	last := s.Chunks[len(s.Chunks)-1]
	return last.Timestamp + last.Duration
}

// AvgRate returns the average data rate in bytes per second.
func (s *StreamInfo) AvgRate() float64 {
	d := s.TotalDuration().Seconds()
	if d == 0 {
		return 0
	}
	return float64(s.TotalSize()) / d
}

// WorstCaseRate returns the highest data rate over any window of the given
// interval, in bytes per second. CRAS sizes buffers from this value, which
// for VBR streams is what wastes buffer memory relative to the average rate
// (the paper's first Section 3.2 problem).
func (s *StreamInfo) WorstCaseRate(interval sim.Time) float64 {
	if len(s.Chunks) == 0 || interval <= 0 {
		return 0
	}
	w := rateWindow{interval: interval}
	for i := range s.Chunks {
		w.push(s.Chunks, i)
	}
	return w.rate()
}

// rateWindow is WorstCaseRate's sliding window over a chunk table, fed one
// chunk at a time: the chunks from j through the last pushed that fit in
// one interval, their byte sum, and the largest sum seen.
type rateWindow struct {
	interval sim.Time
	j        int
	sum, max int64
}

// push slides the window's end to chunk i.
func (w *rateWindow) push(chunks []Chunk, i int) {
	w.sum += chunks[i].Size
	end := chunks[i].Timestamp + chunks[i].Duration
	// A chunk longer than the interval empties the window (j passes i).
	for w.j <= i && end-chunks[w.j].Timestamp > w.interval {
		w.sum -= chunks[w.j].Size
		w.j++
	}
	if w.sum > w.max {
		w.max = w.sum
	}
}

func (w *rateWindow) rate() float64 {
	return float64(w.max) / w.interval.Seconds()
}

// ChunkAt returns the index of the chunk current at the given media time,
// or -1 if the time is outside the stream.
func (s *StreamInfo) ChunkAt(t sim.Time) int {
	if len(s.Chunks) == 0 || t < 0 || t >= s.TotalDuration() {
		return -1
	}
	lo, hi := 0, len(s.Chunks)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.Chunks[mid].Timestamp <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Validate checks the chunk-table invariants: contiguous offsets (from the
// first chunk's offset — container tracks are rebased into a shared file),
// monotonically increasing timestamps with no gaps, positive durations,
// non-negative sizes, and a file and a duration that fit in an int64. It
// refuses a table with a *ChunkError naming the first chunk that breaks
// one.
func (s *StreamInfo) Validate() error {
	_, _, err := s.Scan(0)
	return err
}

// Scan is Validate and, in the same walk over the table, what admission
// needs of it: the worst-case rate over any window of interval (as
// WorstCaseRate; 0 when interval is not positive) and the largest chunk.
// It refuses exactly the tables Validate refuses, with the same error.
func (s *StreamInfo) Scan(interval sim.Time) (worst float64, maxChunk int64, err error) {
	var off int64
	if len(s.Chunks) > 0 {
		off = s.Chunks[0].Offset
		if off < 0 {
			return 0, 0, &ChunkError{Chunk: 0, Field: "offset", Value: off, Want: ">= 0"}
		}
	}
	w := rateWindow{interval: interval}
	var ts sim.Time
	for i, c := range s.Chunks {
		switch {
		case c.Offset != off:
			return 0, 0, &ChunkError{Chunk: i, Field: "offset", Value: c.Offset, Want: fmt.Sprintf("%d, the previous chunk's end", off)}
		case c.Timestamp != ts:
			return 0, 0, &ChunkError{Chunk: i, Field: "timestamp", Value: int64(c.Timestamp), Want: fmt.Sprintf("%d, the previous chunk's end", ts)}
		case c.Duration <= 0:
			return 0, 0, &ChunkError{Chunk: i, Field: "duration", Value: int64(c.Duration), Want: "> 0"}
		case c.Size < 0:
			return 0, 0, &ChunkError{Chunk: i, Field: "size", Value: c.Size, Want: ">= 0"}
		case c.Size > math.MaxInt64-off:
			return 0, 0, &ChunkError{Chunk: i, Field: "size", Value: c.Size, Want: fmt.Sprintf("<= %d, so the file's end fits in an int64", math.MaxInt64-off)}
		case c.Duration > math.MaxInt64-ts:
			return 0, 0, &ChunkError{Chunk: i, Field: "duration", Value: int64(c.Duration), Want: fmt.Sprintf("<= %d, so the stream's end fits in an int64", math.MaxInt64-ts)}
		}
		off += c.Size
		ts += c.Duration
		if interval > 0 {
			w.push(s.Chunks, i)
		}
		maxChunk = max(maxChunk, c.Size)
	}
	if interval > 0 {
		worst = w.rate()
	}
	return worst, maxChunk, nil
}

// ChunkError is a chunk table's refusal, by Validate and so by
// DecodeControl: chunk Chunk's Field ("offset", "timestamp", "duration"
// or "size") holds Value, where the table needs Want.
type ChunkError struct {
	Chunk int
	Field string
	Value int64
	Want  string
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("media: chunk %d %s %d, want %s", e.Chunk, e.Field, e.Value, e.Want)
}

// CBRProfile describes a constant-bit-rate stream.
type CBRProfile struct {
	FrameRate int     // frames per second
	Rate      float64 // bytes per second
}

// MPEG1 is the paper's 1.5 Mb/s benchmark stream.
func MPEG1() CBRProfile { return CBRProfile{FrameRate: 30, Rate: 1.5e6 / 8} }

// MPEG2 is the paper's 6 Mb/s benchmark stream.
func MPEG2() CBRProfile { return CBRProfile{FrameRate: 30, Rate: 6e6 / 8} }

// CBR generates a constant-rate stream of the given duration.
func (p CBRProfile) Generate(name string, duration sim.Time) *StreamInfo {
	frameDur := sim.Time(float64(time.Second) / float64(p.FrameRate))
	frameSize := int64(p.Rate / float64(p.FrameRate))
	n := int(duration / frameDur)
	s := &StreamInfo{Name: name, Chunks: make([]Chunk, n)}
	var off int64
	var ts sim.Time
	for i := 0; i < n; i++ {
		s.Chunks[i] = Chunk{Timestamp: ts, Duration: frameDur, Size: frameSize, Offset: off}
		off += frameSize
		ts += frameDur
	}
	return s
}

// VBRProfile describes a variable-bit-rate stream with an I/P/B
// group-of-pictures structure: I frames are large, B frames small, with
// multiplicative noise on top.
type VBRProfile struct {
	FrameRate int
	MeanRate  float64 // bytes per second, long-run average
	GOP       string  // e.g. "IBBPBBPBB"; empty = "IBBPBBPBB"
	Jitter    float64 // stddev of the per-frame size multiplier (e.g. 0.2)
}

// frameWeights returns per-type size multipliers normalized so the GOP
// averages to 1.
func (p VBRProfile) frameWeights() map[byte]float64 {
	w := map[byte]float64{'I': 2.5, 'P': 1.2, 'B': 0.5}
	gop := p.GOP
	if gop == "" {
		gop = "IBBPBBPBB"
	}
	var sum float64
	for i := 0; i < len(gop); i++ {
		sum += w[gop[i]]
	}
	scale := float64(len(gop)) / sum
	for k := range w {
		w[k] *= scale
	}
	return w
}

// Generate builds a VBR stream; rng supplies the deterministic noise.
func (p VBRProfile) Generate(name string, duration sim.Time, rng *sim.RNG) *StreamInfo {
	gop := p.GOP
	if gop == "" {
		gop = "IBBPBBPBB"
	}
	weights := p.frameWeights()
	frameDur := sim.Time(float64(time.Second) / float64(p.FrameRate))
	meanFrame := p.MeanRate / float64(p.FrameRate)
	n := int(duration / frameDur)
	s := &StreamInfo{Name: name, Chunks: make([]Chunk, n)}
	var off int64
	var ts sim.Time
	for i := 0; i < n; i++ {
		w := weights[gop[i%len(gop)]]
		noise := 1.0
		if p.Jitter > 0 {
			noise = rng.Normal(1, p.Jitter, 0.3, 3)
		}
		size := int64(meanFrame * w * noise)
		if size < 64 {
			size = 64
		}
		s.Chunks[i] = Chunk{Timestamp: ts, Duration: frameDur, Size: size, Offset: off}
		off += size
		ts += frameDur
	}
	return s
}

// ---- control file encoding ----

const ctlMagic = 0x43544c31 // "CTL1"

// EncodeControl serializes a chunk table into the control-file format.
func EncodeControl(s *StreamInfo) []byte { return appendControl(nil, s) }

// appendControl appends s's control-file encoding to dst and returns the
// extended slice; with a dst of enough capacity it allocates nothing.
func appendControl(dst []byte, s *StreamInfo) []byte {
	le := binary.LittleEndian
	at := len(dst)
	dst = slices.Grow(dst, 8+32*len(s.Chunks))[:at+8+32*len(s.Chunks)]
	out := dst[at:]
	le.PutUint32(out[0:], ctlMagic)
	le.PutUint32(out[4:], uint32(len(s.Chunks)))
	for i, c := range s.Chunks {
		rec := out[8+32*i : 8+32*(i+1)]
		le.PutUint64(rec[0:], uint64(c.Timestamp))
		le.PutUint64(rec[8:], uint64(c.Duration))
		le.PutUint64(rec[16:], uint64(c.Size))
		le.PutUint64(rec[24:], uint64(c.Offset))
	}
	return dst
}

// DecodeControl parses a control file. A chunk table that Validate refuses
// is refused with its *ChunkError, wrapped.
func DecodeControl(name string, data []byte) (*StreamInfo, error) {
	le := binary.LittleEndian
	if len(data) < 8 || le.Uint32(data[0:]) != ctlMagic {
		return nil, fmt.Errorf("media: bad control file")
	}
	n := int(le.Uint32(data[4:]))
	if len(data) < 8+32*n {
		return nil, fmt.Errorf("media: truncated control file: %d chunks, %d bytes", n, len(data))
	}
	s := &StreamInfo{Name: name, Chunks: make([]Chunk, n)}
	for i := 0; i < n; i++ {
		base := 8 + 32*i
		s.Chunks[i] = Chunk{
			Timestamp: sim.Time(le.Uint64(data[base:])),
			Duration:  sim.Time(le.Uint64(data[base+8:])),
			Size:      int64(le.Uint64(data[base+16:])),
			Offset:    int64(le.Uint64(data[base+24:])),
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("media: control file %s: %w", name, err)
	}
	return s, nil
}
