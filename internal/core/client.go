package core

import (
	"errors"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// OpenOptions modify crs_open.
type OpenOptions struct {
	// Rate scales the retrieval rate (2.0 = the paper's retrieve-everything
	// fast-forward example). 0 means 1.0.
	Rate float64
	// Force bypasses the admission test. The evaluation uses this to
	// measure what the disk actually sustains beyond the (pessimistic)
	// admitted load; production callers should leave it false.
	Force bool
	// At opens the session at this logical media time instead of zero: the
	// clock, the fetch machinery and any cache or fan-out attach all start
	// from here. The cluster's failover and drain migration use it to
	// resume a displaced viewer at its stamp point.
	At sim.Time
	// DeliveredRate asks for a reduced fraction of the media's frames
	// (0 or 1 means all of them). The clock still advances at Rate — the
	// stream skips chunks instead of slowing down, so a 0.5 session reads
	// half the bytes and holds each delivered frame twice as long. With a
	// RateLadder configured the request is quantized to the nearest rung
	// at or below; the admission test may walk it further down. Ignored
	// for recording sessions.
	DeliveredRate float64
}

// Handle is an application's connection to one continuous media session.
// Open/Close/Start/Stop/Seek/SetRate are RPCs to the request manager
// thread; Get reads the time-driven shared memory buffer directly with no
// server communication, exactly as crs_get does.
type Handle struct {
	srv *Server
	st  *stream
}

// call performs one request-manager RPC, translating port-level failures
// into server-level errors: a destroyed request port means the signal
// handler has run (ErrServerDown); a full one means the control plane is
// saturated beyond even its queue, which is overload by another route.
// The stream is an open's new session.
func (s *Server) call(th *rtm.Thread, req request) (*stream, error) {
	resp, err := s.reqPort.Call(th, req)
	switch {
	case err == nil:
		return resp.st, resp.err
	case errors.Is(err, rtm.ErrPortDead):
		return nil, ErrServerDown
	case errors.Is(err, rtm.ErrPortFull):
		return nil, &OverloadError{RetryAfter: s.cfg.Interval, Reason: "request queue full"}
	}
	return nil, err
}

func (s *Server) open(th *rtm.Thread, r request) (*Handle, error) {
	st, err := s.call(th, r)
	if err != nil {
		return nil, err
	}
	return &Handle{srv: s, st: st}, nil
}

// Open establishes a session for the media file at path using the supplied
// chunk table (which the application loaded from the control file via the
// Unix server), runs the admission test, and sets up the shared buffer.
// This is crs_open.
func (s *Server) Open(th *rtm.Thread, info *media.StreamInfo, path string, opts OpenOptions) (*Handle, error) {
	return s.open(th, request{op: opOpen, info: info, path: path, rate: opts.Rate, at: opts.At, force: opts.Force, dr: opts.DeliveredRate})
}

// OpenRecord establishes a constant-rate recording session: the media file
// is created and fully preallocated through the Unix server, and the
// periodic scheduler then writes each interval's captured chunks into the
// placed blocks on the real-time queue. This implements the extension the
// paper's Conclusions describe. Start/Stop/Seek/Close behave as for
// playback; the logical clock models the capture source.
func (s *Server) OpenRecord(th *rtm.Thread, info *media.StreamInfo, path string, opts OpenOptions) (*Handle, error) {
	return s.open(th, request{op: opOpen, info: info, path: path, rate: opts.Rate, force: opts.Force, record: true})
}

// op performs a session RPC for this handle. The in-flight window is
// tracked on the stream so the lease scan never reaps a session whose
// client is blocked in a queued call — a client waiting on the server is
// alive however long the backlog — and the lease is renewed when the call
// returns. The engine is single-threaded, so the counter is race-free.
func (h *Handle) op(th *rtm.Thread, req request) error {
	req.id = h.st.id
	h.st.rpcInFlight++
	_, err := h.srv.call(th, req)
	h.st.rpcInFlight--
	h.st.touch(h.srv.k.Now())
	return err
}

// Close ends the session and releases its buffer memory (crs_close).
func (h *Handle) Close(th *rtm.Thread) error {
	return h.op(th, request{op: opClose})
}

// Start starts the stream's logical clock after the configured initial
// delay and enables pre-fetching (crs_start).
func (h *Handle) Start(th *rtm.Thread) error {
	return h.op(th, request{op: opStart})
}

// Stop freezes the logical clock and suspends pre-fetching (crs_stop).
func (h *Handle) Stop(th *rtm.Thread) error {
	return h.op(th, request{op: opStop})
}

// Seek sets the logical clock to the given media time and repositions
// pre-fetching (crs_seek). Buffered data is dropped.
func (h *Handle) Seek(th *rtm.Thread, logical sim.Time) error {
	return h.op(th, request{op: opSeek, logical: logical})
}

// SetRate changes the retrieval rate, re-running admission (the extension
// supporting the paper's 60 fps fast-forward discussion). A negative rate
// plays the media backwards at the given magnitude — frames are fetched in
// reverse chunk order and delivered on a forward timeline, the classic
// rewind scan. Rate 0 is refused: that is Pause's job.
func (h *Handle) SetRate(th *rtm.Thread, rate float64) error {
	return h.op(th, request{op: opSetRate, rate: rate})
}

// Pause freezes the session where it stands (crs_pause): the logical clock
// stops, buffered frames stay pinned so Get keeps returning the paused
// frame, pre-fetching ceases, and the admission slot converts to the
// paused resource class — buffer memory stays charged, disk bandwidth is
// released. The session lease keeps running; a paused client must still
// touch the session (Get on the frozen frame suffices) or be reaped like
// any other idle session. Pausing a cache follower or multicast member
// detaches it first; pausing a leader or feed hands its dependents off.
// Idempotent; refused for recording sessions.
func (h *Handle) Pause(th *rtm.Thread) error {
	return h.op(th, request{op: opPause})
}

// Resume restarts a paused session on the exact timeline Pause froze,
// shifted by the paused span: the next frame is due as far in the future
// as it was when the pause hit. Resuming re-runs the admission test to
// reclaim the disk slot — under load the refusal is a *VCRError carrying
// RetryAfter, and with a RateLadder configured the session may come back
// at a reduced delivered rate instead. Idempotent on a playing session.
func (h *Handle) Resume(th *rtm.Thread) error {
	return h.op(th, request{op: opResume})
}

// Get returns the chunk covering the given logical time if it is resident
// in the shared buffer (crs_get). It involves no communication with the
// server and may be called from any engine context. Reading the shared
// buffer renews the session lease: a consuming client is a live client.
func (h *Handle) Get(logical sim.Time) (BufferedChunk, bool) {
	h.st.touch(h.srv.k.Now())
	return h.st.buf.Get(logical)
}

// Available reports residency without recording a hit or miss. Like Get it
// renews the session lease.
func (h *Handle) Available(logical sim.Time) bool {
	h.st.touch(h.srv.k.Now())
	return h.st.buf.Peek(logical)
}

// LogicalNow returns the session's logical clock value at the current
// virtual time.
func (h *Handle) LogicalNow() sim.Time {
	return h.st.clock.At(h.srv.k.Now())
}

// ClockStartsAt returns the real time at which the logical clock reaches
// the given media time (for pacing a player), or -1 if the clock is
// stopped.
func (h *Handle) ClockStartsAt(logical sim.Time) sim.Time {
	return h.st.clock.RealTimeFor(logical)
}

// Info returns the session's chunk table.
func (h *Handle) Info() *media.StreamInfo { return h.st.info }

// Params returns the stream's admission parameters (R_i, C_i).
func (h *Handle) Params() StreamParams { return h.st.par }

// BufferStats exposes the shared buffer for measurements.
func (h *Handle) BufferStats() *TDBuffer { return h.st.buf }

// StreamStats returns a copy of the per-stream counters.
func (h *Handle) StreamStats() StreamStats { return h.st.stats }

// CacheBacked reports whether the session is currently served from the
// interval cache rather than its own disk reads. Like Get, it reads shared
// state directly; it turns false for good once the stream falls back.
func (h *Handle) CacheBacked() bool { return h.st.rides(sharePinned) }

// MulticastMember reports whether the session is currently served by a
// multicast group's fan-out rather than its own disk reads. Like Get, it
// reads shared state directly; it turns false for good once the member
// falls back to disk or is promoted to the group's feed.
func (h *Handle) MulticastMember() bool { return h.st.rides(shareFanout) }

// Paused reports whether the session is paused. Like Get, it reads shared
// state directly and may be called from any engine context.
func (h *Handle) Paused() bool { return h.st.paused }

// DeliveredRate returns the fraction of the media's frames the session is
// currently delivering (1.0 = all of them). The adaptive ladder moves it
// down under sustained disk failures or admission pressure and back up
// after clean cycles.
func (h *Handle) DeliveredRate() float64 { return h.st.dr }

// Reversed reports whether the session is playing backwards (a negative
// SetRate).
func (h *Handle) Reversed() bool { return h.st.rev > 0 }

// PrefixStarted reports whether the session's playback head was served
// from the pinned prefix cache at open time.
func (h *Handle) PrefixStarted() bool { return h.st.prefixStart }

// Health returns the session's position on the degradation ladder. Like
// Get, it reads shared state directly and may be called from any engine
// context; a ladder transition also arrives via Server.OnStreamHealth.
func (h *Handle) Health() StreamHealth { return h.st.health }

// ExtentMap returns the session's disk layout view. The map is shared and
// read-only: every playback session that opened the same layout of the
// same path holds this one map, so a caller must not modify it.
func (h *Handle) ExtentMap() *ExtentMap { return h.st.ext }

// SessionState is a session's exportable migration state: everything a
// front door needs to re-establish the session elsewhere. The snapshot is
// pure memory reads, so it stays readable even after the serving node has
// shut down — exactly the situation failover needs it in.
type SessionState struct {
	Path          string
	Rate          float64  // playback rate (clock rate)
	DeliveredRate float64  // fraction of frames delivered (ladder position)
	Paused        bool     // frozen by Pause, resumable in place
	Started       bool     // the clock has been armed by Start
	Logical       sim.Time // logical clock position now
	StampPoint    sim.Time // media time of the next chunk to be stamped
	CacheBacked   bool
	Multicast     bool
	Health        StreamHealth
}

// SessionState snapshots the session for migration. Like Get it reads
// shared state directly and may be called from any engine context; unlike
// Get it works against a dead server too.
//
//crasvet:snapshot
func (h *Handle) SessionState() SessionState {
	st := h.st
	now := h.srv.k.Now()
	// Past the last chunk the stamp point is the end; past the first, in
	// reverse, it is the start.
	stamp := st.info.TotalDuration()
	switch {
	case st.nextStamp < 0:
		stamp = 0
	case st.nextStamp < len(st.info.Chunks):
		stamp = st.info.Chunks[st.nextStamp].Timestamp
	}
	return SessionState{
		Path:          st.name,
		Rate:          st.clock.Rate(),
		DeliveredRate: st.dr,
		Paused:        st.paused,
		Started:       st.clock.Running(),
		Logical:       st.clock.At(now),
		StampPoint:    stamp,
		CacheBacked:   st.rides(sharePinned),
		Multicast:     st.rides(shareFanout),
		Health:        st.health,
	}
}
