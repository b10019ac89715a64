package core

import (
	"fmt"

	"repro/internal/sim"
)

// BufferedChunk is one media chunk resident in a time-driven shared memory
// buffer: the data (represented by its size — payload bytes are sparse in
// the simulation) plus the timestamp CRAS stamped it with.
type BufferedChunk struct {
	Index     int      // chunk index in the stream's table
	Timestamp sim.Time // media time
	Duration  sim.Time
	Size      int64
	StampedAt sim.Time // real time the request scheduler delivered it
}

// resident is a chunk held in a TDBuffer, with whether a Get has read it
// since it was inserted (a chunk discarded unread counts as a late discard).
type resident struct {
	BufferedChunk
	read bool
}

// TDBuffer is the time-driven shared memory buffer of Figure 4. The server
// inserts chunks with their timestamps; obsolete chunks (timestamp older
// than Tdiscard = Tnow - J on the stream's logical clock) are discarded
// automatically, so the buffer always has room for the data being
// retrieved and never pushes back on the producer the way a FIFO would.
type TDBuffer struct {
	capacity int64 // B: total buffer bytes for this stream
	jitter   sim.Time

	chunks []resident // ordered by timestamp
	bytes  int64

	// Stats.
	Inserted    int64
	Discarded   int64 // by the time-driven rule
	Overflowed  int64 // inserts refused for lack of space (should not happen)
	Overlapped  int64 // inserts refused because the logical interval was taken
	PeakBytes   int64
	GetHits     int64
	GetMisses   int64
	LateDiscard int64 // chunks that were never read before discard

	// popScratch backs PopBefore's return value: valid until the next
	// PopBefore call, which every caller respects (the popped chunks are
	// consumed inside one scheduler pass).
	popScratch []BufferedChunk
}

// NewTDBuffer creates a buffer with the given byte capacity and jitter
// allowance J.
func NewTDBuffer(capacity int64, jitter sim.Time) *TDBuffer {
	return &TDBuffer{capacity: capacity, jitter: jitter}
}

// Capacity returns B, the configured byte capacity.
func (b *TDBuffer) Capacity() int64 { return b.capacity }

// SetCapacity resizes the buffer (used when a rate change re-admits the
// stream with a different R_i). The capacity never shrinks below the bytes
// currently resident: evicting live data would drop chunks that are still
// needed, so a shrink takes effect only as the time-driven discard drains
// the excess.
func (b *TDBuffer) SetCapacity(capacity int64) {
	if capacity < b.bytes {
		capacity = b.bytes
	}
	b.capacity = capacity
}

// Bytes returns the bytes currently resident.
func (b *TDBuffer) Bytes() int64 { return b.bytes }

// search is sort.Search specialized to the resident set: the first index
// whose chunk timestamp is >= ts. Hand-rolled because the closure a generic
// sort.Search call captures would allocate on the per-cycle path.
func (b *TDBuffer) search(ts sim.Time) int {
	lo, hi := 0, len(b.chunks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.chunks[mid].Timestamp < ts {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// check reports the first broken structural invariant of the resident
// set: chunks ordered and non-overlapping in logical time, and bytes equal
// to the sum of their sizes and within capacity.
func (b *TDBuffer) check() error {
	var sum int64
	for i, c := range b.chunks {
		sum += c.Size
		if i == 0 {
			continue
		}
		if prev := b.chunks[i-1]; prev.Timestamp >= c.Timestamp || prev.Timestamp+prev.Duration > c.Timestamp {
			return fmt.Errorf("chunks %d,%d out of order or overlapping: [%v,%v) then %v",
				i-1, i, prev.Timestamp, prev.Timestamp+prev.Duration, c.Timestamp)
		}
	}
	if sum != b.bytes {
		return fmt.Errorf("holds %d bytes but resident chunks sum to %d", b.bytes, sum)
	}
	if b.bytes > b.capacity {
		return fmt.Errorf("holds %d bytes, over capacity %d", b.bytes, b.capacity)
	}
	return nil
}

// Len returns the number of resident chunks.
func (b *TDBuffer) Len() int { return len(b.chunks) }

// Insert stamps a chunk into the buffer, keeping the resident set ordered
// by timestamp and non-overlapping in logical time. It reports whether the
// chunk fit; a refusal for space is counted as an overflow (the admission
// test is supposed to make this impossible), a refusal because another
// chunk already covers part of the logical interval as an overlap.
func (b *TDBuffer) Insert(c BufferedChunk) bool {
	if b.bytes+c.Size > b.capacity {
		b.Overflowed++
		return false
	}
	at := b.search(c.Timestamp)
	if at < len(b.chunks) && b.chunks[at].Timestamp < c.Timestamp+c.Duration {
		b.Overlapped++
		return false
	}
	if at > 0 && b.chunks[at-1].Timestamp+b.chunks[at-1].Duration > c.Timestamp {
		b.Overlapped++
		return false
	}
	b.chunks = append(b.chunks, resident{}) //crasvet:allow hotalloc -- resident-set insert; capacity retained, bounded by the buffer's byte capacity
	copy(b.chunks[at+1:], b.chunks[at:])
	b.chunks[at] = resident{BufferedChunk: c}
	b.bytes += c.Size
	b.Inserted++
	if b.bytes > b.PeakBytes {
		b.PeakBytes = b.bytes
	}
	return true
}

// DiscardBefore applies the time-driven rule: every chunk whose timestamp
// is earlier than tdiscard is removed. The caller computes tdiscard as
// logicalNow - J.
func (b *TDBuffer) DiscardBefore(tdiscard sim.Time) int {
	return len(b.PopBefore(tdiscard))
}

// PopBefore is DiscardBefore returning the removed chunks, oldest first —
// the hook the interval cache uses to pin a leader's obsolete chunks for a
// trailing stream instead of dropping them. Returns nil when nothing fell
// behind the horizon.
func (b *TDBuffer) PopBefore(tdiscard sim.Time) []BufferedChunk {
	b.popScratch = b.popScratch[:0]
	n := 0
	for n < len(b.chunks) && b.chunks[n].Timestamp < tdiscard {
		r := &b.chunks[n]
		b.bytes -= r.Size
		b.Discarded++
		if !r.read {
			b.LateDiscard++
		}
		b.popScratch = append(b.popScratch, r.BufferedChunk) //crasvet:allow hotalloc -- append into popScratch[:0]; capacity retained at the high-water mark of one pop
		n++
	}
	if n == 0 {
		return nil
	}
	b.chunks = append(b.chunks[:0], b.chunks[n:]...) //crasvet:allow hotalloc -- append into b.chunks[:0]; capacity retained by construction
	return b.popScratch
}

// At returns the resident chunk with exactly the given timestamp, if any —
// the interval cache's residency probe, distinct from Get in that it does
// not count a hit or miss and does not mark the chunk read.
func (b *TDBuffer) At(timestamp sim.Time) (BufferedChunk, bool) {
	at := b.search(timestamp)
	if at < len(b.chunks) && b.chunks[at].Timestamp == timestamp {
		return b.chunks[at].BufferedChunk, true
	}
	return BufferedChunk{}, false
}

// covering is the index of the resident chunk whose interval holds the
// logical time, or -1. The resident set is ordered and non-overlapping
// (check), so the only candidate is the last chunk stamped at or before
// logical, found by binary search as in search.
func (b *TDBuffer) covering(logical sim.Time) int {
	lo, hi := 0, len(b.chunks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.chunks[mid].Timestamp <= logical {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && logical < b.chunks[lo-1].Timestamp+b.chunks[lo-1].Duration {
		return lo - 1
	}
	return -1
}

// Get returns the chunk covering the given logical time, if resident —
// the crs_get operation, which involves no communication with the server.
func (b *TDBuffer) Get(logical sim.Time) (BufferedChunk, bool) {
	i := b.covering(logical)
	if i < 0 {
		b.GetMisses++
		return BufferedChunk{}, false
	}
	c := &b.chunks[i]
	b.GetHits++
	c.read = true
	return c.BufferedChunk, true
}

// Peek reports whether a chunk covering the logical time is resident
// without recording a hit or miss.
func (b *TDBuffer) Peek(logical sim.Time) bool {
	return b.covering(logical) >= 0
}

// Reset empties the buffer (used by crs_seek).
func (b *TDBuffer) Reset() {
	b.chunks = b.chunks[:0]
	b.bytes = 0
}

// Jitter returns the configured jitter allowance J.
func (b *TDBuffer) Jitter() sim.Time { return b.jitter }
