package workload

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/propseed"
	"repro/internal/rtm"
	"repro/internal/sim"
)

const fakeFrame = 40 * time.Millisecond

// fakeTitle is n frames of fakeFrame each.
func fakeTitle(n int) *media.StreamInfo {
	info := &media.StreamInfo{Name: "/fake", Chunks: make([]media.Chunk, n)}
	for i := range info.Chunks {
		info.Chunks[i] = media.Chunk{Timestamp: sim.Time(i) * fakeFrame, Duration: fakeFrame, Size: 1000}
	}
	return info
}

// fakeSession scripts what a viewer sees: where the session's clock is
// anchored at each instant, how long past its due time each chunk turns
// resident, and how the server answers every call. It checks the ledger
// under test whenever the viewer reads the clock or the buffer.
type fakeSession struct {
	t     *testing.T
	k     *rtm.Kernel
	stats *PlayerStats

	anchor   func(now sim.Time) sim.Time // real time the clock reads zero; negative = stopped
	late     func(ts sim.Time) sim.Time  // residency delay past the due time
	stale    bool                        // Get hands out a chunk that does not cover the asked time
	refuseAt sim.Time                    // > 0: the front door gives up from this time on
	startErr error
	answers  []error // answers to VCR calls, in order; nil or exhausted = accept

	paused   bool
	pausedAt sim.Time
	closes   int
	crashes  int
	gets     int
	missed   sim.Time // timestamp of the last Get that found nothing; -1 after a hit
}

func (f *fakeSession) balanced(where string) {
	f.t.Helper()
	if ps := f.stats; ps.Frames != ps.Obtained+ps.Lost+ps.Abandoned {
		f.t.Fatalf("%s at %v: owed %d != obtained %d + lost %d + abandoned %d",
			where, f.k.Now(), ps.Frames, ps.Obtained, ps.Lost, ps.Abandoned)
	}
}

func (f *fakeSession) due(ts sim.Time) sim.Time {
	if f.paused {
		return -1
	}
	a := f.anchor(f.k.Now())
	if a < 0 {
		return -1
	}
	return a + ts
}

func (f *fakeSession) Start(*rtm.Thread) error { return f.startErr }

func (f *fakeSession) Close(*rtm.Thread) error {
	f.closes++
	return nil
}

func (f *fakeSession) ClockStartsAt(ts sim.Time) sim.Time {
	f.balanced("clock read")
	return f.due(ts)
}

func (f *fakeSession) Get(ts sim.Time) (core.BufferedChunk, bool) {
	f.balanced("buffer read")
	f.gets++
	due := f.due(ts)
	now := f.k.Now()
	if due < 0 || now < due {
		f.t.Fatalf("Get(%v) at %v before its due time %v", ts, now, due)
	}
	// A seek can make a frame overdue at its turn, so only a repeated poll
	// is held to the window.
	if limit := due + giveUpFrames*fakeFrame + pollEvery; ts == f.missed && now > limit {
		f.t.Fatalf("Get(%v) at %v polled past the give-up window ending %v", ts, now, limit)
	}
	if now < due+f.late(ts) {
		f.missed = ts
		return core.BufferedChunk{}, false
	}
	f.missed = -1
	ch := core.BufferedChunk{Timestamp: ts, Duration: fakeFrame}
	if f.stale {
		ch.Timestamp += fakeFrame
	}
	return ch, true
}

func (f *fakeSession) Refused() bool { return f.refuseAt > 0 && f.k.Now() >= f.refuseAt }

func (f *fakeSession) answer() error {
	if len(f.answers) == 0 {
		return nil
	}
	err := f.answers[0]
	f.answers = f.answers[1:]
	return err
}

// reanchor pins the clock so it reads logical now.
func (f *fakeSession) reanchor(logical sim.Time) {
	at := f.k.Now() - logical
	f.anchor = func(sim.Time) sim.Time { return at }
}

func (f *fakeSession) Seek(_ *rtm.Thread, logical sim.Time) error {
	err := f.answer()
	if err == nil {
		f.reanchor(logical)
	}
	return err
}

func (f *fakeSession) SetRate(*rtm.Thread, float64) error { return f.answer() }

func (f *fakeSession) Pause(*rtm.Thread) error {
	err := f.answer()
	if err == nil && !f.paused {
		f.paused, f.pausedAt = true, f.k.Now()
	}
	return err
}

func (f *fakeSession) Resume(*rtm.Thread) error {
	err := f.answer()
	if err == nil && f.paused {
		// The timeline resumes where the pause froze it, shifted by the
		// paused span.
		f.paused = false
		if a := f.anchor(f.pausedAt); a >= 0 {
			shifted := a + f.k.Now() - f.pausedAt
			f.anchor = func(sim.Time) sim.Time { return shifted }
		}
	}
	return err
}

func (f *fakeSession) LogicalNow() sim.Time {
	if a := f.anchor(f.k.Now()); a >= 0 && !f.paused {
		return f.k.Now() - a
	}
	return 0
}

func (f *fakeSession) Crash() { f.crashes++ }

// runFake plays v through f on a fresh kernel via Spawn and returns the
// outcome once the engine drains.
func runFake(t *testing.T, f *fakeSession, v Viewer) *ViewerOutcome {
	t.Helper()
	eng := sim.NewEngine(1)
	f.t, f.k, f.missed = t, rtm.NewKernel(eng), -1
	if f.anchor == nil {
		f.anchor = func(sim.Time) sim.Time { return time.Second }
	}
	if f.late == nil {
		f.late = func(sim.Time) sim.Time { return 0 }
	}
	out := &ViewerOutcome{Stats: new(PlayerStats)}
	f.stats = out.Stats
	v.Config.Priority = rtm.PrioRTLow
	v.Spawn(f.k, "viewer", out, func(*rtm.Thread) (Session, error) { return f, nil })
	eng.Run()
	if !out.Stats.Done {
		t.Fatal("viewer never finished")
	}
	f.balanced("end")
	return out
}

func constant(d sim.Time) func(sim.Time) sim.Time { return func(sim.Time) sim.Time { return d } }

// moveAt is a clock anchored at from until at, and at to from then on.
func moveAt(at, from, to sim.Time) func(sim.Time) sim.Time {
	return func(now sim.Time) sim.Time {
		if now < at {
			return from
		}
		return to
	}
}

// firstOnTimeAt checks that the first frame was obtained at its due time at.
func firstOnTimeAt(at sim.Time) func(*testing.T, *fakeSession, *PlayerStats) {
	return func(t *testing.T, _ *fakeSession, ps *PlayerStats) {
		if first := ps.Delays.Points[0]; first.T != at || first.V != 0 {
			t.Errorf("first frame obtained at %v with delay %vs, want at %v on time", first.T, first.V, at)
		}
	}
}

var errRefusedVCR = &core.VCRError{Op: "resume", RetryAfter: 500 * time.Millisecond, Reason: "test"}

// TestViewerRules drives the one viewer through a fake session, one case
// per rule of the loss rule and per way a session ends.
func TestViewerRules(t *testing.T) {
	const n = 20
	cases := []struct {
		name   string
		f      fakeSession
		script []Op

		frames, obtained, lost, abandoned int
		cause                             Cause
		closes                            int
		check                             func(t *testing.T, f *fakeSession, ps *PlayerStats)
	}{
		{
			name: "on time", frames: n, obtained: n, closes: 1,
			check: func(t *testing.T, _ *fakeSession, ps *PlayerStats) {
				if s := ps.Delays.Summary(); s.Max != 0 {
					t.Errorf("max delay %vs, want 0", s.Max)
				}
			},
		},
		{
			name: "late within the give-up window",
			f:    fakeSession{late: constant(3 * fakeFrame)}, frames: n, obtained: n, closes: 1,
			check: func(t *testing.T, _ *fakeSession, ps *PlayerStats) {
				if s := ps.Delays.Summary(); s.Min != (3*fakeFrame).Seconds() || s.Max != s.Min {
					t.Errorf("delays %v..%vs, want every frame %vs late", s.Min, s.Max, (3 * fakeFrame).Seconds())
				}
			},
		},
		{
			name: "given up",
			f:    fakeSession{late: constant(6 * fakeFrame)}, frames: n, lost: n, closes: 1,
			check: func(t *testing.T, f *fakeSession, ps *PlayerStats) {
				// Each give-up window anchors to its own due time, so the
				// run of losses ends one window after the last due time.
				if end, want := f.k.Now(), time.Second+(n-1)*fakeFrame+giveUpFrames*fakeFrame; end > want+pollEvery {
					t.Errorf("finished at %v, want by %v", end, want+pollEvery)
				}
			},
		},
		{
			name: "stopped clock",
			f:    fakeSession{anchor: constant(-1)}, frames: n, lost: n, closes: 1,
			check: func(t *testing.T, f *fakeSession, _ *PlayerStats) {
				if f.gets != 0 {
					t.Errorf("%d buffer reads under a stopped clock", f.gets)
				}
				if end := f.k.Now(); end != n*fakeFrame {
					t.Errorf("finished at %v, want the frame cadence's %v", end, n*fakeFrame)
				}
			},
		},
		{
			// A failover re-anchors the clock 2 s later while the viewer
			// waits for its first frame: the viewer waits on, it loses
			// nothing.
			name:   "deadline moves later while waiting",
			f:      fakeSession{anchor: moveAt(500*time.Millisecond, time.Second, 3*time.Second)},
			frames: n, obtained: n, closes: 1, check: firstOnTimeAt(3 * time.Second),
		},
		{
			// The clock moves 2 s earlier while the viewer sleeps towards
			// the old deadline: the next re-check catches the new one.
			name:   "deadline moves earlier while waiting",
			f:      fakeSession{anchor: moveAt(500*time.Millisecond, 3*time.Second, time.Second)},
			frames: n, obtained: n, closes: 1, check: firstOnTimeAt(time.Second),
		},
		{
			// Frame 10 plays at 1.4 s; the front door gives up while the
			// viewer waits for frame 11.
			name:   "refused mid-play",
			f:      fakeSession{refuseAt: 1410 * time.Millisecond},
			frames: n, obtained: 11, abandoned: n - 11, cause: CauseRefused, closes: 1,
		},
		{
			// At the parent a cluster viewer whose Start failed set its lost
			// count before its frame count, so it owed nothing.
			name:   "Start refused",
			f:      fakeSession{startErr: errors.New("no capacity")},
			frames: n, abandoned: n, cause: CauseRefused, closes: 1,
			check: func(t *testing.T, _ *fakeSession, ps *PlayerStats) {
				if ps.Err == nil {
					t.Error("Start's error not recorded")
				}
			},
		},
		{
			name:   "crash",
			script: []Op{{Kind: OpCrash, AfterFrames: 5}},
			frames: n, obtained: 5, abandoned: n - 5, cause: CauseCrashed,
			check: func(t *testing.T, f *fakeSession, _ *PlayerStats) {
				if f.crashes != 1 {
					t.Errorf("crashed %d times", f.crashes)
				}
			},
		},
		{
			name:   "silent, paused first",
			script: []Op{{Kind: OpGoSilent, AfterFrames: 5, PauseFirst: true}},
			frames: n, obtained: 5, abandoned: n - 5, cause: CauseSilent,
			check: func(t *testing.T, f *fakeSession, _ *PlayerStats) {
				if !f.paused {
					t.Error("silent viewer did not pause first")
				}
			},
		},
		{
			// Frames 0..5 play by 1.2 s; the close fires at the next turn.
			name:   "scripted close at a sim time",
			script: []Op{{Kind: OpClose, At: 1200 * time.Millisecond}},
			frames: n, obtained: 6, abandoned: n - 6, cause: CauseClosed, closes: 1,
		},
		{
			// The VCR sweep's scrubbers: a resume refused twice ends the
			// session, and the frames left are abandoned, not dropped from
			// the ledger.
			name:   "resume refused twice",
			f:      fakeSession{answers: []error{nil, errRefusedVCR, errRefusedVCR}},
			script: []Op{{Kind: OpPause, AfterFrames: 3, Dwell: 100 * time.Millisecond}},
			frames: n, obtained: 3, abandoned: n - 3, cause: CauseRefused, closes: 1,
			check: func(t *testing.T, _ *fakeSession, ps *PlayerStats) {
				if ps.Refusals != 1 || ps.Err == nil {
					t.Errorf("refusals %d, err %v; want the first refusal counted and the second recorded", ps.Refusals, ps.Err)
				}
			},
		},
		{
			name:   "typed refusal plays on",
			f:      fakeSession{answers: []error{errRefusedVCR}},
			script: []Op{{Kind: OpSetRate, AfterFrames: 3, Rate: 2}},
			frames: n, obtained: n, closes: 1,
			check: func(t *testing.T, _ *fakeSession, ps *PlayerStats) {
				if ps.Ops != 1 || ps.Refusals != 1 || ps.Err != nil {
					t.Errorf("ops %d, refusals %d, err %v", ps.Ops, ps.Refusals, ps.Err)
				}
			},
		},
		{
			// A seek moves the play index: frames 5..14 are never owed.
			name:   "seek skips ahead",
			script: []Op{{Kind: OpSeek, AfterFrames: 5, Target: 15 * fakeFrame}},
			frames: 10, obtained: 10, closes: 1,
		},
		{
			name: "stale chunks counted",
			f:    fakeSession{stale: true}, frames: n, obtained: n, closes: 1,
			check: func(t *testing.T, _ *fakeSession, ps *PlayerStats) {
				if ps.Stale != n || ps.Check() == nil {
					t.Errorf("stale %d, check %v; want %d stale and a failed check", ps.Stale, ps.Check(), n)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.f
			out := runFake(t, &f, Viewer{Info: fakeTitle(n), Script: tc.script})
			ps := out.Stats
			if ps.Frames != tc.frames || ps.Obtained != tc.obtained || ps.Lost != tc.lost || ps.Abandoned != tc.abandoned {
				t.Errorf("owed %d, obtained %d, lost %d, abandoned %d; want %d, %d, %d, %d",
					ps.Frames, ps.Obtained, ps.Lost, ps.Abandoned, tc.frames, tc.obtained, tc.lost, tc.abandoned)
			}
			if ps.Cause != tc.cause {
				t.Errorf("cause %v, want %v", ps.Cause, tc.cause)
			}
			if f.closes != tc.closes {
				t.Errorf("closed %d times, want %d", f.closes, tc.closes)
			}
			if tc.check != nil {
				tc.check(t, &f, ps)
			}
		})
	}
}

// TestViewerScriptProperties runs random op scripts against a fake session
// with random lateness, clock moves and stops, refusals and errors. The
// fake checks conservation at every clock and buffer read, so it holds
// after every frame; the end state must match how the session ended.
//
// The seed defaults to a fixed value; CI overrides it with
// PROP_SEED and every failure names the seed, so a failing run
// replays with
//
//	PROP_SEED=<seed> go test ./internal/workload -run TestViewerScriptProperties
func TestViewerScriptProperties(t *testing.T) {
	seed := propseed.Seed(t, 20261017)
	root := rand.New(rand.NewSource(seed))
	for run := 0; run < 300; run++ {
		rng := rand.New(rand.NewSource(root.Int63()))
		t.Run(strconv.Itoa(run), func(t *testing.T) {
			runViewerScript(t, rng)
			if t.Failed() {
				t.Logf("replay: PROP_SEED=%d, run %d", seed, run)
			}
		})
		if t.Failed() {
			return
		}
	}
}

func runViewerScript(t *testing.T, rng *rand.Rand) {
	n := 5 + rng.Intn(56)
	ms := func(max int) sim.Time { return sim.Time(rng.Intn(max)) * time.Millisecond }

	// The clock only ever moves later (a failover re-anchors on the
	// replacement), and may stop for a while on the way.
	base := ms(2000)
	moveAt, moveBy := ms(4000), ms(1500)
	stopFrom, stopFor := sim.Time(-1), sim.Time(0)
	if rng.Intn(4) == 0 {
		stopFrom, stopFor = ms(4000), ms(800)
	}
	f := fakeSession{
		anchor: func(now sim.Time) sim.Time {
			if now >= stopFrom && now < stopFrom+stopFor {
				return -1
			}
			if now >= moveAt {
				return base + moveBy
			}
			return base
		},
		stale: rng.Intn(10) == 0,
	}
	lateness := make([]sim.Time, n)
	for i := range lateness {
		switch rng.Intn(4) {
		case 0:
			lateness[i] = ms(4 * int(fakeFrame/time.Millisecond))
		case 1:
			lateness[i] = 6 * fakeFrame // past the give-up window
		}
	}
	f.late = func(ts sim.Time) sim.Time { return lateness[int(ts/fakeFrame)] }
	if rng.Intn(7) == 0 {
		f.refuseAt = base + ms(n*int(fakeFrame/time.Millisecond))
	}
	if rng.Intn(20) == 0 {
		f.startErr = errors.New("no capacity")
	}
	for i := rng.Intn(6); i > 0; i-- {
		switch rng.Intn(4) {
		case 0:
			f.answers = append(f.answers, errRefusedVCR)
		case 1:
			f.answers = append(f.answers, errors.New("evicted"))
		default:
			f.answers = append(f.answers, nil)
		}
	}

	var script []Op
	seeks := false
	after, at := 0, sim.Time(0)
	for i := rng.Intn(5); i > 0; i-- {
		op := Op{Kind: OpKind(1 + rng.Intn(int(OpClose)))}
		if rng.Intn(2) == 0 {
			after += rng.Intn(n)
			op.AfterFrames = after
		} else {
			at += ms(3000)
			op.At = at
		}
		switch op.Kind {
		case OpSeek:
			op.Target = sim.Time(rng.Intn(n+5)) * fakeFrame
			seeks = true
		case OpPause:
			op.Dwell = ms(500)
		case OpSetRate:
			op.Rate = 2
		case OpSeekStorm:
			op.Seeks, op.Scatter = 1+rng.Intn(5), rng.Intn(2) == 0
		case OpGoSilent:
			op.PauseFirst = rng.Intn(2) == 0
		}
		script = append(script, op)
	}

	out := runFake(t, &f, Viewer{Info: fakeTitle(n), Script: script})
	ps := out.Stats
	desc := func() string {
		return "script " + strconv.Quote(sprintScript(script)) + " over " + strconv.Itoa(n) + " frames"
	}
	if (ps.Abandoned > 0) != (ps.Cause != CauseNone) {
		t.Errorf("%s: abandoned %d with cause %v", desc(), ps.Abandoned, ps.Cause)
	}
	if !seeks && ps.Frames != n {
		t.Errorf("%s: owed %d of a %d-frame title without a seek", desc(), ps.Frames, n)
	}
	if ps.Ops > len(script) {
		t.Errorf("%s: %d ops fired of %d scripted", desc(), ps.Ops, len(script))
	}
	wantStale := 0
	if f.stale {
		wantStale = ps.Obtained
	}
	if ps.Stale != wantStale {
		t.Errorf("%s: %d stale chunks of %d obtained (stale=%v)", desc(), ps.Stale, ps.Obtained, f.stale)
	}
	if f.startErr != nil && (ps.Abandoned != n || ps.Cause != CauseRefused || ps.Err == nil) {
		t.Errorf("%s: Start refused, yet abandoned %d (%v), err %v", desc(), ps.Abandoned, ps.Cause, ps.Err)
	}
	if (f.crashes == 1) != (ps.Cause == CauseCrashed) || f.crashes > 1 {
		t.Errorf("%s: crashed %d times, cause %v", desc(), f.crashes, ps.Cause)
	}
	// The session ends exactly once: a crashed or silent client never
	// hangs up, everyone else hangs up once (a scripted close included).
	wantCloses := 1
	if ps.Cause == CauseCrashed || ps.Cause == CauseSilent {
		wantCloses = 0
	}
	if f.closes != wantCloses {
		t.Errorf("%s: closed %d times with cause %v", desc(), f.closes, ps.Cause)
	}
}

func sprintScript(script []Op) string {
	s := ""
	for _, op := range script {
		s += strconv.Itoa(int(op.Kind)) + "@" + strconv.Itoa(op.AfterFrames) + "/" + op.At.String() + " "
	}
	return s
}
