// Package nps models NPS, the user-level real-time network engine the
// paper's QtPlay application uses to ship streams from the storage machine
// to the playback machine (Figure 11; Nakajima's "NPS: User-Level
// Real-Time Network Engine on Real-Time Mach").
//
// The model is a shared link — 10 Mb/s Ethernet on the paper's hardware —
// that serializes frame transmissions, plus rate-reserved channels on top:
//
//   - A channel reserves a data rate at creation; channel admission keeps
//     the sum of reservations under the link's capacity, mirroring CRAS's
//     disk admission.
//   - Reserved (real-time) channels are token-bucket paced to their rate
//     and their frames bypass best-effort traffic at the link, the same
//     two-queue structure the modified disk driver uses.
//   - Best-effort channels take whatever is left.
//
// Delivery posts a Packet to the receiver's port on the destination
// kernel; with one engine hosting several kernels, this is how the two
// machines of Figure 11 talk.
package nps

import (
	"fmt"
	"time"

	"repro/internal/rtm"
	"repro/internal/sim"
)

// Config describes a link.
type Config struct {
	BandwidthBps float64  // payload bandwidth, bytes/second (10 Mb/s Ethernet ~ 1.25e6 minus framing)
	Latency      sim.Time // propagation + interrupt delivery
	MTU          int      // payload bytes per frame; default 1472
	HeaderBytes  int      // per-frame overhead on the wire; default 42
	// ReservableFraction caps total reservations; default 0.9.
	ReservableFraction float64
}

func (c *Config) fillDefaults() {
	if c.BandwidthBps == 0 {
		c.BandwidthBps = 10e6 / 8
	}
	if c.MTU == 0 {
		c.MTU = 1472
	}
	if c.HeaderBytes == 0 {
		c.HeaderBytes = 42
	}
	if c.ReservableFraction == 0 {
		c.ReservableFraction = 0.9
	}
	if c.Latency == 0 {
		c.Latency = 500 * time.Microsecond
	}
}

// Packet is what a receiver's port gets per application send (one message
// per Send call, delivered when its last wire frame arrives).
type Packet struct {
	Channel  string
	Tag      any
	Bytes    int
	SentAt   sim.Time // when Send was called
	QueuedAt sim.Time // when the last frame entered the link queue
	Arrived  sim.Time // when delivery fired
}

// Stats aggregates link activity.
type Stats struct {
	FramesSent  [2]int64 // [best-effort, reserved]
	BytesSent   [2]int64 // payload bytes
	BusyTime    sim.Time
	MaxQueueLen [2]int
	TotalQueue  sim.Time // frame queue waits
}

type frame struct {
	ch       *Channel
	bytes    int // payload bytes in this frame
	last     bool
	pkt      *Packet
	queuedAt sim.Time
}

// Network is one shared link.
type Network struct {
	eng  *sim.Engine
	name string
	cfg  Config

	queues   [2][]*frame // [bestEffort, reserved]
	busy     bool
	reserved float64

	stats Stats
}

const (
	qBestEffort = 0
	qReserved   = 1
)

// New creates a link.
func New(eng *sim.Engine, name string, cfg Config) *Network {
	cfg.fillDefaults()
	return &Network{eng: eng, name: name, cfg: cfg}
}

// Config returns the effective link configuration.
func (n *Network) Config() Config { return n.cfg }

// Stats returns a copy of the link statistics.
func (n *Network) Stats() Stats { return n.stats }

// Channel is one flow across the link.
type Channel struct {
	net  *Network
	name string
	dst  *rtm.Port

	reserved float64 // bytes/second; 0 = best-effort
	tokens   float64
	burst    float64
	refilled sim.Time

	// Socket-buffer backpressure: Send blocks while this many payload
	// bytes are queued on the link for the channel.
	bufCap   int
	inflight int
	waiters  *sim.Waiter

	// Stats.
	PacketsSent int64
	BytesQueued int64
	Throttled   sim.Time // time senders spent waiting for tokens or buffer
	closed      bool
}

// NewChannel opens a channel delivering to dst. A non-zero reservation
// makes it a real-time channel: admission-checked, token-paced, and served
// ahead of best-effort traffic.
func (n *Network) NewChannel(name string, reservedBps float64, dst *rtm.Port) (*Channel, error) {
	if reservedBps < 0 {
		return nil, fmt.Errorf("nps: negative reservation")
	}
	if reservedBps > 0 &&
		n.reserved+reservedBps > n.cfg.BandwidthBps*n.cfg.ReservableFraction {
		return nil, fmt.Errorf("nps: reservation %.0f B/s refused: %.0f of %.0f B/s already reserved",
			reservedBps, n.reserved, n.cfg.BandwidthBps*n.cfg.ReservableFraction)
	}
	n.reserved += reservedBps
	ch := &Channel{
		net: n, name: name, dst: dst, reserved: reservedBps,
		refilled: n.eng.Now(),
		bufCap:   128 << 10,
		waiters:  sim.NewWaiter("nps:" + name),
	}
	if reservedBps > 0 {
		// Allow a burst of two MTUs plus 50 ms of rate.
		ch.burst = float64(2*n.cfg.MTU) + reservedBps*0.05
		ch.tokens = ch.burst
	}
	return ch, nil
}

// Close releases the channel's reservation.
func (ch *Channel) Close() {
	if !ch.closed {
		ch.net.reserved -= ch.reserved
		ch.closed = true
	}
}

// Name returns the channel name.
func (ch *Channel) Name() string { return ch.name }

// Send transmits a payload. For reserved channels the calling thread is
// paced by the token bucket (this is how NPS holds a session to its rate);
// the call returns once every wire frame is queued on the link. Delivery
// of the Packet to the destination port happens when the last frame
// arrives.
func (ch *Channel) Send(th *rtm.Thread, bytes int, tag any) error {
	if ch.closed {
		return fmt.Errorf("nps: send on closed channel %s", ch.name)
	}
	if bytes <= 0 {
		return fmt.Errorf("nps: empty send")
	}
	n := ch.net
	if ch.reserved > 0 {
		ch.refill()
		need := float64(bytes)
		if ch.tokens < need {
			wait := sim.Time((need - ch.tokens) / ch.reserved * 1e9)
			ch.Throttled += wait
			th.Sleep(wait)
			ch.refill()
		}
		ch.tokens -= need
	}
	// Socket-buffer backpressure: block while the channel has a full
	// buffer's worth of frames queued on the link.
	for ch.inflight+bytes > ch.bufCap && ch.inflight > 0 {
		before := n.eng.Now()
		ch.waiters.Wait(th.Proc())
		ch.Throttled += n.eng.Now() - before
	}
	ch.inflight += bytes
	pkt := &Packet{Channel: ch.name, Tag: tag, Bytes: bytes, SentAt: n.eng.Now()}
	remaining := bytes
	for remaining > 0 {
		sz := remaining
		if sz > n.cfg.MTU {
			sz = n.cfg.MTU
		}
		remaining -= sz
		ch.enqueue(&frame{ch: ch, bytes: sz, last: remaining == 0, pkt: pkt})
	}
	pkt.QueuedAt = n.eng.Now()
	ch.PacketsSent++
	ch.BytesQueued += int64(bytes)
	return nil
}

func (ch *Channel) refill() {
	now := ch.net.eng.Now()
	ch.tokens += ch.reserved * (now - ch.refilled).Seconds()
	if ch.tokens > ch.burst {
		ch.tokens = ch.burst
	}
	ch.refilled = now
}

func (ch *Channel) enqueue(f *frame) {
	n := ch.net
	q := qBestEffort
	if ch.reserved > 0 {
		q = qReserved
	}
	f.queuedAt = n.eng.Now()
	n.queues[q] = append(n.queues[q], f)
	if len(n.queues[q]) > n.stats.MaxQueueLen[q] {
		n.stats.MaxQueueLen[q] = len(n.queues[q])
	}
	if !n.busy {
		n.transmitNext()
	}
}

func (n *Network) transmitNext() {
	var f *frame
	var q int
	for _, q = range []int{qReserved, qBestEffort} {
		if len(n.queues[q]) > 0 {
			f = n.queues[q][0]
			n.queues[q] = n.queues[q][1:]
			break
		}
	}
	if f == nil {
		return
	}
	n.busy = true
	n.stats.TotalQueue += n.eng.Now() - f.queuedAt
	wire := float64(f.bytes + n.cfg.HeaderBytes)
	txTime := sim.Time(wire / n.cfg.BandwidthBps * 1e9)
	n.stats.BusyTime += txTime
	n.stats.FramesSent[q]++
	n.stats.BytesSent[q] += int64(f.bytes)
	n.eng.After(txTime, func() {
		f.ch.inflight -= f.bytes
		f.ch.waiters.WakeAll()
		if f.last {
			pkt := *f.pkt
			n.eng.After(n.cfg.Latency, func() {
				pkt.Arrived = n.eng.Now()
				f.ch.dst.Send(pkt)
			})
		}
		n.busy = false
		n.transmitNext()
	})
}
