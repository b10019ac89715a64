package sim

// Waiter is a FIFO list of blocked processes, the building block for
// higher-level synchronization (the buffer cache's fill waits, a network
// link's senders).
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
