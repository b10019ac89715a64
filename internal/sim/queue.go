package sim

// Waiter is a FIFO list of blocked processes. It is the building block for
// higher-level synchronization (queues, ports, mutexes).
type Waiter struct {
	reason string // "wait:" + name, built once
	procs  []*Proc
}

// NewWaiter returns an empty wait list; name appears in block reasons.
func NewWaiter(name string) *Waiter { return &Waiter{reason: "wait:" + name} }

// Wait parks the calling process on the list until a Wake delivers to it.
func (w *Waiter) Wait(p *Proc) {
	w.procs = append(w.procs, p)
	p.Block(w.reason)
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

// WakeAll unblocks every waiting process in FIFO order and returns how many
// were woken.
func (w *Waiter) WakeAll() int {
	n := len(w.procs)
	for _, p := range w.procs {
		p.Unblock()
	}
	w.procs = w.procs[:0]
	return n
}

// Len returns the number of waiting processes.
func (w *Waiter) Len() int { return len(w.procs) }

// Remove drops a process from the wait list without waking it (used for
// timeouts). It reports whether the process was on the list.
func (w *Waiter) Remove(p *Proc) bool {
	for i, q := range w.procs {
		if q == p {
			w.procs = append(w.procs[:i], w.procs[i+1:]...)
			return true
		}
	}
	return false
}

// Queue is an unbounded FIFO message queue with blocking receive. Put never
// blocks; Get blocks the calling process until an item is available.
type Queue[T any] struct {
	name    string
	items   []T
	waiters *Waiter
}

// NewQueue returns an empty queue; name appears in block reasons.
func NewQueue[T any](name string) *Queue[T] {
	return &Queue[T]{name: name, waiters: NewWaiter(name)}
}

// Put appends an item and wakes one waiting receiver if present. It may be
// called from any engine context (event callback or process).
func (q *Queue[T]) Put(v T) {
	q.items = append(q.items, v)
	q.waiters.WakeOne()
}

// Get removes and returns the oldest item, blocking the calling process
// while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for len(q.items) == 0 {
		q.waiters.Wait(p)
	}
	v := q.items[0]
	var zero T
	q.items[0] = zero
	q.items = q.items[1:]
	return v
}

// TryGet removes and returns the oldest item without blocking. The second
// result reports whether an item was available.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items[0] = zero
	q.items = q.items[1:]
	return v, true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Drain removes and returns all queued items.
func (q *Queue[T]) Drain() []T {
	out := q.items
	q.items = nil
	return out
}
