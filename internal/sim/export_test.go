package sim

import "fmt"

// PendingEvents returns the number of scheduled events that will still
// fire: stale calendar entries left by a cancel or a re-arm do not count.
// It walks all three parts of the calendar.
func (e *Engine) PendingEvents() int {
	c := &e.cal
	n := 0
	count := func(en *entry) {
		if en.live() {
			n++
		}
	}
	for i := c.fifoHead; i < len(c.fifo); i++ {
		count(&c.fifo[i])
	}
	for s := uint(0); s < ringBuckets; s++ {
		if c.occupied&(1<<s) == 0 {
			continue
		}
		for i := c.first[s]; i != 0; i = c.nodes[i].next {
			count(&c.nodes[i].entry)
		}
	}
	for i := range c.far {
		count(&c.far[i])
	}
	return n
}

// WakeOne unblocks the longest-waiting process, if any, and reports whether
// one was woken.
func (w *Waiter) WakeOne() bool {
	if len(w.procs) == 0 {
		return false
	}
	p := w.procs[0]
	copy(w.procs, w.procs[1:])
	w.procs = w.procs[:len(w.procs)-1]
	p.Unblock()
	return true
}

// checkCalendar returns the first broken calendar invariant, or nil: the
// fifo holds entries at cur in seq order; base is cur's bucket and cur is
// not after the clock; each ring slot holds only its own bucket of the
// ring's span, doubly linked in (at, seq) order; and the overflow heap is
// a heap of entries past the ring.
func (e *Engine) checkCalendar() error {
	c := &e.cal
	if c.cur > e.now || c.base != bucket(c.cur) {
		return fmt.Errorf("cur %v, base %d, clock %v: base must be cur's bucket and cur not after the clock", c.cur, c.base, e.now)
	}
	for i := c.fifoHead; i < len(c.fifo); i++ {
		if en := &c.fifo[i]; en.at != c.cur || i > c.fifoHead && !before(&c.fifo[i-1], en) {
			return fmt.Errorf("fifo entry %d (%v, %d) out of place at cur %v", i, en.at, en.seq, c.cur)
		}
	}
	for s := uint(0); s < ringBuckets; s++ {
		if c.occupied&(1<<s) == 0 {
			continue
		}
		prev := int32(0)
		for i := c.first[s]; i != 0; i = c.nodes[i].next {
			en := &c.nodes[i].entry
			if b := bucket(en.at); b < c.base || b-c.base >= ringBuckets || uint(b)%ringBuckets != s {
				return fmt.Errorf("ring slot %d holds bucket %d with base %d", s, b, c.base)
			}
			if c.nodes[i].prev != prev || prev != 0 && !before(&c.nodes[prev].entry, en) {
				return fmt.Errorf("ring slot %d out of order at (%v, %d)", s, en.at, en.seq)
			}
			prev = i
		}
		if c.last[s] != prev {
			return fmt.Errorf("ring slot %d's tail is not its last node", s)
		}
	}
	for i := range c.far {
		if bucket(c.far[i].at)-c.base < ringBuckets {
			return fmt.Errorf("overflow entry at %v lies in the ring (base %d)", c.far[i].at, c.base)
		}
		if i > 0 && before(&c.far[i], &c.far[(i-1)/2]) {
			return fmt.Errorf("overflow heap out of order at %d", i)
		}
	}
	return nil
}
