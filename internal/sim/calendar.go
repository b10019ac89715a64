package sim

import "math/bits"

// The calendar's sizes. In crasperf's four workloads at seed 31, 13–32% of
// schedules are at the current instant (the FIFO), 8–16% are 8.4–16.8 ms
// ahead and 30–72% are 16.8–33.5 ms ahead (frame pacing), all inside the
// ring's 67 ms. Under 1.2% are more than 67 ms ahead (the 500 ms CRAS
// interval, leases) and wait in the overflow heap. Sixty-four buckets give
// one occupancy bit each in a single word.
const (
	bucketShift = 20 // a bucket spans 2^20 ns, about 1.05 ms
	ringBuckets = 64 // the ring spans 64 buckets, about 67 ms
)

// bucket is the absolute bucket number of virtual time t.
func bucket(t Time) int64 { return int64(t) >> bucketShift }

// calendar holds the pending entries in three parts, each in (at, seq)
// order:
//
//   - fifo: the entries scheduled at cur, the time of the last entry fired,
//     in seq order, so appending keeps it sorted;
//   - the ring: the entries whose bucket lies in [base, base+ringBuckets),
//     where base is cur's bucket. Bucket b is the list in slot
//     b % ringBuckets, doubly linked and sorted by (at, seq), whose tail
//     takes the common append;
//   - far: a binary heap of the entries past the ring.
//
// Every ring entry is earlier than every far entry, so the earliest entry
// is the earlier of the fifo's head and the ring's first head (the heap's,
// with the ring empty). base moves only when a live entry is popped, that
// is, when the clock moves to it. It never passes the clock's bucket, so
// an entry scheduled from an event at the current instant lands in its
// own bucket, not a lap of the ring later. Moving base brings the far
// entries the ring now covers into it.
type calendar struct {
	cur  Time
	base int64

	fifo     []entry
	fifoHead int

	occupied    uint64 // bit s set: slot s holds a list
	nodes       []node // the ring's nodes; nodes[0] is the nil link
	free        int32  // head of the free nodes' list
	far         eventHeap
	first, last [ringBuckets]int32 // each slot's head and tail node
}

// node is a ring entry with its links in its bucket's list (next also
// links the free list). Links are indexes into calendar.nodes, so the pool
// is one slice that stabilizes at the ring's high-water mark.
type node struct {
	entry
	next, prev int32
}

// part names where the calendar's earliest entry is.
type part uint8

const (
	empty part = iota
	inFIFO
	inRing
	inFar
)

// push adds en, which is not before cur: to the fifo at cur, to the ring
// within its span, and to the overflow heap past it.
func (c *calendar) push(en entry) {
	if en.at == c.cur {
		c.fifo = append(c.fifo, en) //crasvet:allow hotalloc -- the fifo's backing array stabilizes at the high-water mark of same-instant events
		return
	}
	if b := bucket(en.at); b-c.base < ringBuckets {
		c.insert(en, b)
		return
	}
	c.far.push(en)
}

// firstSlot is the slot of the earliest non-empty bucket; the ring must be
// non-empty.
func (c *calendar) firstSlot() uint {
	from := uint(c.base) % ringBuckets
	return (from + uint(bits.TrailingZeros64(bits.RotateLeft64(c.occupied, -int(from))))) % ringBuckets
}

// head returns the earliest entry, the part holding it and, in the ring,
// its slot, without removing it; the part is empty, with a nil entry, if
// nothing is pending.
func (c *calendar) head() (*entry, part, uint) {
	var h *entry
	p, s := empty, uint(0)
	if c.occupied != 0 {
		s = c.firstSlot()
		h, p = &c.nodes[c.first[s]].entry, inRing
	} else if len(c.far) > 0 {
		h, p = &c.far[0], inFar
	}
	if c.fifoHead < len(c.fifo) && (h == nil || before(&c.fifo[c.fifoHead], h)) {
		h, p = &c.fifo[c.fifoHead], inFIFO
	}
	return h, p, s
}

// pop removes and returns the head that head reported in part p and
// slot s.
func (c *calendar) pop(p part, s uint) entry {
	var en entry
	switch p {
	case inFIFO:
		en = c.fifo[c.fifoHead]
		c.fifo[c.fifoHead] = entry{}
		if c.fifoHead++; c.fifoHead == len(c.fifo) {
			c.fifo, c.fifoHead = c.fifo[:0], 0
		}
		return en // at cur: the clock does not move
	case inRing:
		i := c.first[s]
		n := &c.nodes[i]
		en, c.first[s] = n.entry, n.next
		if n.next == 0 {
			c.occupied &^= 1 << s
		} else {
			c.nodes[n.next].prev = 0
		}
		n.entry, n.next, c.free = entry{}, c.free, i
	default:
		en = c.far.pop()
	}
	if en.live() && en.at != c.cur {
		c.advance(en.at)
	}
	return en
}

// advance moves cur to t, the time of the live entry just popped, and the
// ring with it.
func (c *calendar) advance(t Time) {
	c.cur = t
	b := bucket(t)
	if b == c.base {
		return
	}
	c.base = b
	for len(c.far) > 0 {
		fb := bucket(c.far[0].at)
		if fb-b >= ringBuckets {
			return
		}
		if en := c.far.pop(); en.live() {
			c.insert(en, fb)
		}
	}
}

// insert adds en to the ring in bucket b, which must lie in the ring.
func (c *calendar) insert(en entry, b int64) {
	i := c.free
	if i != 0 {
		c.free = c.nodes[i].next
	} else {
		if len(c.nodes) == 0 {
			c.nodes = append(c.nodes, node{}) //crasvet:allow hotalloc -- once per engine: the nil link
		}
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, node{}) //crasvet:allow hotalloc -- the node pool stabilizes at the high-water mark of ring entries
	}
	n := &c.nodes[i]
	n.entry = en
	s := uint(b) % ringBuckets
	if c.occupied&(1<<s) == 0 {
		c.occupied |= 1 << s
		n.prev, n.next = 0, 0
		c.first[s], c.last[s] = i, i
		return
	}
	// Walk back from the tail to the entry en fires after. Most entries
	// are armed in the order they fire and append; the rest (armed
	// sooner than an entry armed before them) land a few entries back.
	after := c.last[s]
	for after != 0 && before(&en, &c.nodes[after].entry) {
		after = c.nodes[after].prev
	}
	n.prev = after
	if after == 0 {
		n.next, c.first[s] = c.first[s], i
	} else {
		n.next, c.nodes[after].next = c.nodes[after].next, i
	}
	if n.next == 0 {
		c.last[s] = i
	} else {
		c.nodes[n.next].prev = i
	}
}
