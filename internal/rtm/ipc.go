package rtm

import (
	"errors"
	"math"

	"repro/internal/sim"
)

// portWaiter is one blocked receiver. A sender hands the message directly
// into the waiter's slot before waking it, so delivery order is the order
// in which receivers blocked: a receiver that shows up between the wakeup
// and the woken thread actually running cannot barge in and steal the
// message. Each Thread embeds its own, since a thread blocks on at most one
// port.
type portWaiter struct {
	t     *Thread
	msg   any
	given bool
}

// receivers is a port's FIFO of blocked receivers.
type receivers []*portWaiter

// hand gives msg to the longest-waiting receiver and wakes it; false means
// nobody was waiting.
func (r *receivers) hand(msg any) bool {
	if len(*r) == 0 {
		return false
	}
	w := shift(r)
	w.msg, w.given = msg, true
	w.t.wake()
	return true
}

// wait registers t as the newest receiver and blocks it until a message is
// handed over, or returns ok false once *dead turns true.
func (r *receivers) wait(t *Thread, reason string, dead *bool) (msg any, ok bool) {
	w := &t.recv
	*w = portWaiter{t: t}
	*r = append(*r, w) //crasvet:allow hotalloc -- waiter list backing array stabilizes at the number of threads that block here
	for !w.given {
		if *dead {
			return nil, false
		}
		t.block(reason)
	}
	m := w.msg
	w.msg = nil
	return m, true
}

// wakeAll wakes every blocked receiver empty-handed: the port died.
func (r *receivers) wakeAll() {
	ws := *r
	*r = nil
	for _, w := range ws {
		w.t.wake()
	}
}

// shift removes and returns the first element of a non-empty queue,
// sliding the rest down so the queue keeps its backing array.
func shift[S ~[]E, E any](q *S) E {
	s := *q
	v := s[0]
	n := copy(s, s[1:])
	var zero E
	s[n] = zero
	*q = s[:n]
	return v
}

// Port is a Mach-style one-way message queue: sends never block, receives
// block the calling thread until a message arrives. Sends are legal from
// interrupt context (plain sim events), which is how device completion
// reaches the I/O-done manager thread. Request/reply traffic goes through
// an RPC port instead.
type Port struct {
	name    string
	msgs    []any
	waiters receivers
	dead    bool
	notify  *Port // receives DeadName when this port is destroyed

	// reason is the block reason of a receiver waiting here, built on first
	// use so later receives concatenate nothing.
	reason string
}

// NewPort returns an empty port.
func (k *Kernel) NewPort(name string) *Port { return &Port{name: name} }

// Name returns the port name.
func (p *Port) Name() string { return p.name }

func (p *Port) blockReason() string {
	if p.reason == "" {
		p.reason = "port:" + p.name
	}
	return p.reason
}

// Send enqueues a message, or hands it directly to the longest-waiting
// receiver if one is blocked. Sends to a destroyed port vanish, like writes
// to a Mach dead name.
func (p *Port) Send(msg any) {
	if p.dead || p.waiters.hand(msg) {
		return
	}
	p.msgs = append(p.msgs, msg) //crasvet:allow hotalloc -- port queue backing array stabilizes at the high-water mark of queued messages
}

// Receive dequeues the oldest message, blocking the calling thread while the
// port is empty. On a destroyed port it returns a DeadName message instead
// of blocking forever.
func (p *Port) Receive(t *Thread) any {
	if len(p.msgs) > 0 {
		return shift(&p.msgs)
	}
	if !p.dead {
		if m, ok := p.waiters.wait(t, p.blockReason(), &p.dead); ok {
			return m
		}
	}
	return DeadName{Port: p}
}

// Len returns the number of queued messages.
func (p *Port) Len() int { return len(p.msgs) }

// DeadName announces that a port was destroyed: delivered to the port
// registered with NotifyDeadName, and returned by Receive on a destroyed
// port so event loops can tell destruction from a real message. Port is
// the destroyed one-way port; it is nil when an RPC port died.
type DeadName struct{ Port *Port }

// NotifyDeadName registers a port to receive one DeadName message when this
// port is destroyed — the analogue of Mach's dead-name notification, which
// is how a server learns that a client's port vanished with the client.
func (p *Port) NotifyDeadName(n *Port) { p.notify = n }

// Dead reports whether Destroy has been called.
func (p *Port) Dead() bool { return p.dead }

// Destroy marks the port dead: queued messages are discarded, blocked
// receivers wake empty-handed, future sends vanish, and the NotifyDeadName
// port — if registered — gets a DeadName message.
func (p *Port) Destroy() {
	if p.dead {
		return
	}
	p.dead = true
	p.msgs = nil
	p.waiters.wakeAll()
	if n := p.notify; n != nil {
		p.notify = nil
		n.Send(DeadName{Port: p})
	}
}

// Port-level errors reported by RPC ports.
var (
	// ErrPortFull reports a call rejected because the port's queue is at
	// capacity.
	ErrPortFull = errors.New("rtm: port queue full")
	// ErrPortDead reports a call against a destroyed port.
	ErrPortDead = errors.New("rtm: port destroyed")
)

// Unbounded is the capacity of an RPC port whose queue never turns a call
// away.
const Unbounded = math.MaxInt

// RPC is a Mach-style call port: Call sends a request and blocks the
// calling thread until the server answers it, the shape of every client
// interaction with the Unix server and with CRAS's request manager.
// Requests travel unboxed, and each reply lands in the caller's own call
// record, so a call allocates nothing once the port has served as many
// concurrent callers as it will see. The queue holds at most a capacity of
// calls — the analogue of a Mach port qlimit — and Call reports rejection
// as an error, so a slow or wedged server cannot grow it without limit.
type RPC[Req, Resp any] struct {
	cap      int
	calls    []*rpcCall[Req, Resp] // queued, not yet received
	waiters  receivers             // blocked servers
	dead     bool
	notify   *Port
	rejected int64
	free     []*rpcCall[Req, Resp] // call records between calls

	// reason is a waiting server's block reason, replyReason a waiting
	// caller's.
	reason, replyReason string
}

// rpcCall is one call in flight: the request, and the slot its reply lands
// in. respond is the reply function ReceiveCall hands the server, bound
// once when the record is made.
type rpcCall[Req, Resp any] struct {
	t        *Thread
	req      Req
	resp     Resp
	answered bool
	dropped  bool // the port died with the call still queued
	respond  func(Resp)
}

// NewRPC returns an empty call port that queues at most capacity calls
// (minimum 1; Unbounded for no limit).
func NewRPC[Req, Resp any](name string, capacity int) *RPC[Req, Resp] {
	return &RPC[Req, Resp]{
		cap:    max(capacity, 1),
		reason: "port:" + name, replyReason: "port:" + name + ".reply",
	}
}

// BoundedPort is the untyped call port.
type BoundedPort = RPC[any, any]

// NewBoundedPort returns an untyped call port; see NewRPC.
func (k *Kernel) NewBoundedPort(name string, capacity int) *BoundedPort {
	return NewRPC[any, any](name, capacity)
}

// Len returns the number of queued calls.
func (p *RPC[Req, Resp]) Len() int { return len(p.calls) }

// Rejected returns how many calls were turned away — at capacity, or
// attempted against the destroyed port.
func (p *RPC[Req, Resp]) Rejected() int64 { return p.rejected }

// NotifyDeadName registers a port to receive one DeadName message (with a
// nil Port) when this port is destroyed; see Port.NotifyDeadName.
func (p *RPC[Req, Resp]) NotifyDeadName(n *Port) { p.notify = n }

// Call sends req and blocks until the server replies. A blocked server is
// handed the call directly, so the queue bound applies only when nobody is
// waiting: past it Call returns ErrPortFull. It returns ErrPortDead when
// the port is destroyed before the call or while the call waits in the
// queue; a call the server has already taken is answered regardless.
func (p *RPC[Req, Resp]) Call(t *Thread, req Req) (resp Resp, err error) {
	if p.dead {
		p.rejected++
		return resp, ErrPortDead
	}
	if len(p.waiters) == 0 && len(p.calls) >= p.cap {
		p.rejected++
		return resp, ErrPortFull
	}
	c := p.record()
	c.t, c.req = t, req
	if !p.waiters.hand(c) {
		p.calls = append(p.calls, c) //crasvet:allow hotalloc -- call queue backing array stabilizes at the high-water mark of queued calls
	}
	for !c.answered {
		if c.dropped {
			p.release(c)
			return resp, ErrPortDead
		}
		t.block(p.replyReason)
	}
	resp = c.resp
	p.release(c)
	return resp, nil
}

// record returns a cleared call record, reusing a released one if any.
func (p *RPC[Req, Resp]) record() *rpcCall[Req, Resp] {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	c := &rpcCall[Req, Resp]{}
	c.respond = func(r Resp) {
		c.resp, c.answered = r, true
		c.t.wake()
	}
	return c
}

// release clears a finished call's record and keeps it for the next call.
func (p *RPC[Req, Resp]) release(c *rpcCall[Req, Resp]) {
	respond := c.respond
	*c = rpcCall[Req, Resp]{respond: respond}
	p.free = append(p.free, c) //crasvet:allow hotalloc -- free list capacity stabilizes at the number of concurrent callers
}

// ReceiveCall takes the oldest call, blocking the server thread while none
// is queued, and returns its request and the function that answers it; the
// server calls reply exactly once. ok is false when the port is (or
// becomes) destroyed, which is a server loop's signal to exit.
func (p *RPC[Req, Resp]) ReceiveCall(t *Thread) (req Req, reply func(Resp), ok bool) {
	var c *rpcCall[Req, Resp]
	switch {
	case len(p.calls) > 0:
		c = shift(&p.calls)
	case p.dead:
		return req, nil, false
	default:
		m, ok := p.waiters.wait(t, p.reason, &p.dead)
		if !ok {
			return req, nil, false
		}
		c = m.(*rpcCall[Req, Resp])
	}
	return c.req, c.respond, true
}

// Destroy marks the port dead: queued calls are dropped and their callers
// woken, in queue order, to return ErrPortDead; then blocked servers wake
// to see ok false; then the NotifyDeadName port, if registered, gets a
// DeadName message.
func (p *RPC[Req, Resp]) Destroy() {
	if p.dead {
		return
	}
	p.dead = true
	calls := p.calls
	p.calls = nil
	for _, c := range calls {
		c.dropped = true
		c.t.wake()
	}
	p.waiters.wakeAll()
	if n := p.notify; n != nil {
		p.notify = nil
		n.Send(DeadName{})
	}
}

// Mutex is a blocking lock with optional priority inheritance. Without
// inheritance it exhibits the classic unbounded priority inversion that
// Real-Time Mach's integrated protocols were built to avoid. Inheritance
// is transitive: boosting a holder that is itself blocked on another
// inheriting mutex re-boosts that mutex's holder, all the way down the
// chain.
type Mutex struct {
	name    string
	inherit bool
	owner   *Thread
	waiters []*Thread
}

// NewMutex returns an unlocked mutex. inherit enables priority inheritance.
func (k *Kernel) NewMutex(name string, inherit bool) *Mutex {
	return &Mutex{name: name, inherit: inherit}
}

// boostChain raises the holder's priority and follows the blocking chain.
func (m *Mutex) boostChain(prio int) {
	for cur := m; cur != nil && cur.inherit && cur.owner != nil; {
		if prio <= cur.owner.EffectivePriority() {
			return
		}
		owner := cur.owner
		owner.setBoost(prio)
		cur = owner.blockedOn
	}
}

// Lock acquires the mutex, blocking the calling thread while it is held.
func (m *Mutex) Lock(t *Thread) {
	for m.owner != nil {
		m.waiters = append(m.waiters, t)
		if m.inherit {
			m.boostChain(t.EffectivePriority())
		}
		t.blockedOn = m
		t.block("mutex:" + m.name)
		t.blockedOn = nil
	}
	m.owner = t
}

// Unlock releases the mutex and hands it to the highest-priority waiter.
// Only the owner may unlock.
func (m *Mutex) Unlock(t *Thread) {
	if m.owner != t {
		panic("rtm: unlock of mutex not held by caller")
	}
	m.owner = nil
	if m.inherit {
		t.setBoost(0)
	}
	if len(m.waiters) == 0 {
		return
	}
	// Wake the highest-priority waiter (FIFO among equals).
	best := 0
	for i, w := range m.waiters {
		if w.EffectivePriority() > m.waiters[best].EffectivePriority() {
			best = i
		}
	}
	next := m.waiters[best]
	m.waiters = append(m.waiters[:best], m.waiters[best+1:]...)
	next.wake()
}

// Owner returns the current holder, or nil.
func (m *Mutex) Owner() *Thread { return m.owner }

// DeadlineMiss is the message a periodic thread posts to its deadline port
// when a cycle overruns.
type DeadlineMiss struct {
	Thread *Thread
	Cycle  int
	LateBy sim.Time
}

// PeriodicConfig describes a periodic thread in the style of Real-Time
// Mach's rt_thread_create: a release every Period starting at Offset, an
// optional relative Deadline, and an optional port notified on misses.
type PeriodicConfig struct {
	Name         string
	Priority     int
	Quantum      sim.Time // 0 = fixed-priority, >0 = round-robin
	Period       sim.Time
	Offset       sim.Time
	Deadline     sim.Time // relative to each release; 0 = none
	DeadlinePort *Port    // receives DeadlineMiss messages; may be nil
}

// NewPeriodicThread starts a thread that runs body once per period. body
// returns false to terminate the thread. If a cycle overruns its period the
// next release is the first period boundary after completion (releases are
// skipped, not queued), matching the paper's request-scheduler behaviour of
// resynchronizing after a missed deadline.
func (k *Kernel) NewPeriodicThread(cfg PeriodicConfig, body func(t *Thread, cycle int) bool) *Thread {
	return k.NewThread(cfg.Name, cfg.Priority, cfg.Quantum, func(t *Thread) {
		release := cfg.Offset
		for cycle := 0; ; cycle++ {
			if k.Now() < release {
				t.SleepUntil(release)
			}
			if !body(t, cycle) {
				return
			}
			if cfg.Deadline > 0 && k.Now() > release+cfg.Deadline {
				if cfg.DeadlinePort != nil {
					cfg.DeadlinePort.Send(DeadlineMiss{Thread: t, Cycle: cycle, LateBy: k.Now() - (release + cfg.Deadline)})
				}
			}
			release += cfg.Period
			for release < k.Now() { // resynchronize after an overrun
				release += cfg.Period
			}
		}
	})
}
