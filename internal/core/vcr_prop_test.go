package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// Property-based exercise of the VCR layer: seeded random viewer
// populations — plain disk readers, cache followers, multicast members,
// reduced-rate viewers — disturbed by pause/resume/seek/rate-change/crash
// scripts, with the VCR state machine and the shared-resource accounting
// verified after every operation. The invariants:
//
//   - no expired chunk is ever delivered (late is allowed inside the
//     jitter window; past Tdiscard is not),
//   - the server's invariants hold after every attach, detach and
//     eviction (CheckInvariants),
//   - a paused stream issues zero disk reads and its clock is frozen,
//   - DeliveredRate only ever sits on a ladder rung (CheckInvariants),
//   - every VCR refusal is typed (*VCRError wrapping ErrVCRRefused),
//   - the set of open streams is always admissible and the cache and
//     multicast budgets are never overcommitted.
//
// The seed defaults to a fixed value so the suite is deterministic; CI
// (and anyone chasing a failure) overrides it with VCR_PROP_SEED, and
// every failure message carries the seed so the exact script replays with
//
//	VCR_PROP_SEED=<seed> go test ./internal/core -run TestVCRProperties
func TestVCRProperties(t *testing.T) {
	seed := int64(20260807)
	if env := os.Getenv("VCR_PROP_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("VCR_PROP_SEED=%q: %v", env, err)
		}
		seed = v
	}
	t.Logf("property seed %d (override with VCR_PROP_SEED)", seed)
	root := rand.New(rand.NewSource(seed))
	for seq := 0; seq < 8; seq++ {
		runVCRSequence(t, seed, seq, rand.New(rand.NewSource(root.Int63())))
		if t.Failed() {
			return // one broken script is enough; later ones only add noise
		}
	}
}

// vcrViewer is one session under the random population. Any viewer a VCR
// op touches directly is excused from the zero-loss obligation (the op
// legitimately rewrites its timeline); everyone else must keep playing
// undisturbed — seeks and rate changes must not leak onto peers.
type vcrViewer struct {
	h       *Handle
	stop    bool
	done    bool
	excused bool
	losses  int
	played  int
	expired int // chunks delivered past their discard horizon
}

// pausedProbe freezes what a successful Pause promised: no further disk
// reads and a motionless clock, checked at every subsequent sweep until
// the stream resumes or is reaped.
type pausedProbe struct {
	v       *vcrViewer
	reads   int64
	logical sim.Time
}

func vcrPropPlay(b *bed, th *rtm.Thread, v *vcrViewer, frames int) {
	info := v.h.Info()
	const poll = 2 * time.Millisecond
	for i := 0; i < frames && !v.stop; i++ {
		want := info.Chunks[i]
		due := v.h.ClockStartsAt(want.Timestamp)
		if due < 0 { // clock stopped: paused, suspended or crashed under us
			break
		}
		if b.k.Now() < due {
			th.SleepUntil(due)
		}
		deadline := due + 3*want.Duration
		for !v.stop {
			if c, ok := v.h.Get(want.Timestamp); ok {
				// Late delivery inside the jitter window is the contract;
				// delivery past the discard horizon never is.
				if c.Timestamp+c.Duration <= v.h.LogicalNow()-sim.Time(jitter) {
					v.expired++
				}
				v.played++
				break
			}
			if b.k.Now() >= deadline {
				v.losses++
				break
			}
			th.Sleep(poll)
		}
	}
	v.done = true
}

// checkVCRInvariants sweeps the server (CheckInvariants, the ladder
// discipline and shared-path accounting included) and checks what the
// sweep leaves out: the promises recorded at pause time, which a sweep of
// current state cannot see, and the admissibility of the live set, which
// force-opens and member deaths legitimately break elsewhere.
func checkVCRInvariants(t *testing.T, b *bed, paused *[]pausedProbe, seed int64, seq, op int) {
	s := b.cras
	now := b.k.Now()
	fail := func(format string, args ...interface{}) {
		t.Errorf("seed %d seq %d op %d: "+format, append([]interface{}{seed, seq, op}, args...)...)
	}

	sweep(t, s, fmt.Sprintf("seed %d seq %d op %d", seed, seq, op))
	kept := (*paused)[:0]
	for _, probe := range *paused {
		st := probe.v.h.st
		if st.closed || !st.paused {
			continue // reaped while paused (the lease layer won) or resumed
		}
		if got := st.stats.ReadsIssued; got != probe.reads {
			fail("paused stream %d issued %d disk reads while frozen", st.id, got-probe.reads)
		}
		if got := st.clock.At(now); got != probe.logical {
			fail("paused stream %d clock moved: %v -> %v", st.id, probe.logical, got)
		}
		kept = append(kept, probe)
	}
	*paused = kept
	// Every open stream got in through admission, and every VCR transition
	// re-admits — so the live set must be admissible at all times.
	if err := s.admit(s.admissionSet(nil)); err != nil {
		fail("open session set no longer admissible: %v", err)
	}
}

// vcrOpErr enforces the typed-refusal contract on a VCR verb's result:
// the only error a live session may see is a *VCRError carrying
// ErrVCRRefused and a retry hint. (A session reaped by the lease layer
// mid-script answers "no such stream", which is not a refusal.)
func vcrOpErr(t *testing.T, v *vcrViewer, seed int64, seq, op int, verb string, err error) {
	if err == nil || v.h.st.closed {
		return
	}
	var vcrErr *VCRError
	if !errors.As(err, &vcrErr) || !errors.Is(err, ErrVCRRefused) {
		t.Errorf("seed %d seq %d op %d: %s returned untyped error %v", seed, seq, op, verb, err)
		return
	}
	if vcrErr.RetryAfter <= 0 {
		t.Errorf("seed %d seq %d op %d: %s refusal carries no retry hint", seed, seq, op, verb)
	}
}

// runVCRSequence drives one random ~25-op script against a mixed
// population: a hot title that forms cache pairs and (in half the beds)
// multicast groups, a cold title read straight from disk, and occasional
// reduced-rate viewers. Pause, resume, seek, rate changes and server-side
// crashes disturb the sessions mid-play; the invariant sweep runs after
// every op and the undisturbed viewers must lose nothing.
func runVCRSequence(t *testing.T, seed int64, seq int, rng *rand.Rand) {
	const frames = 60
	rungs := []float64{1, 0.75, 0.5}
	hot := media.MPEG1().Generate("/hot", 12*time.Second)
	cold := media.MPEG1().Generate("/cold", 12*time.Second)
	cfg := Config{
		CacheBudget: 8 << 20,
		RateLadder:  rungs,
	}
	if rng.Intn(2) == 0 {
		cfg.BatchWindow = time.Duration(500+rng.Intn(1000)) * time.Millisecond
		cfg.PrefixBudget = 2 << 20
	}
	newBed(t, seed^int64(seq*2654435761), ufs.Options{}, cfg,
		map[string]*media.StreamInfo{"/hot": hot, "/cold": cold},
		func(b *bed, th *rtm.Thread) {
			var viewers []*vcrViewer
			var paused []pausedProbe

			for op := 0; op < 25 && !t.Failed(); op++ {
				var live []*vcrViewer
				for _, v := range viewers {
					if !v.stop && !v.h.st.closed {
						live = append(live, v)
					}
				}
				switch k := rng.Intn(12); {
				case k < 4 && len(live) < 8: // open a viewer
					path, info := "/hot", hot
					if rng.Intn(4) == 0 {
						path, info = "/cold", cold
					}
					opts := OpenOptions{}
					if rng.Intn(5) == 0 {
						opts.DeliveredRate = rungs[1+rng.Intn(len(rungs)-1)]
					}
					h, err := b.cras.Open(th, info, path, opts)
					if err != nil {
						t.Logf("op %d @%v: open refused: %v", op, b.k.Now(), err)
						break // admission refusal is a legitimate outcome
					}
					t.Logf("op %d @%v: open %s dr=%g (stream %d cached=%v member=%v)",
						op, b.k.Now(), path, h.DeliveredRate(), h.st.id, h.CacheBacked(), h.MulticastMember())
					h.Start(th)
					v := &vcrViewer{h: h}
					viewers = append(viewers, v)
					b.k.NewThread("viewer", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
						vcrPropPlay(b, th2, v, frames)
					})
				case k < 6 && len(live) > 0: // pause; half stay silent for the lease layer
					v := live[rng.Intn(len(live))]
					v.stop, v.excused = true, true
					err := v.h.Pause(th)
					t.Logf("op %d @%v: pause stream %d: %v", op, b.k.Now(), v.h.st.id, err)
					vcrOpErr(t, v, seed, seq, op, "pause", err)
					if err == nil {
						paused = append(paused, pausedProbe{
							v:       v,
							reads:   v.h.StreamStats().ReadsIssued,
							logical: v.h.LogicalNow(),
						})
					}
				case k < 7 && len(paused) > 0: // resume one of the frozen sessions
					probe := paused[rng.Intn(len(paused))]
					err := probe.v.h.Resume(th)
					t.Logf("op %d @%v: resume stream %d (frozen at %v): %v",
						op, b.k.Now(), probe.v.h.st.id, probe.logical, err)
					vcrOpErr(t, probe.v, seed, seq, op, "resume", err)
				case k < 9 && len(live) > 0: // seek: full re-admission or pin reuse
					v := live[rng.Intn(len(live))]
					v.stop, v.excused = true, true
					err := v.h.Seek(th, sim.Time(rng.Intn(8))*sim.Time(time.Second))
					t.Logf("op %d @%v: seek stream %d: %v", op, b.k.Now(), v.h.st.id, err)
					vcrOpErr(t, v, seed, seq, op, "seek", err)
				case k < 11 && len(live) > 0: // rate change, incl. rewind and ff
					v := live[rng.Intn(len(live))]
					v.stop, v.excused = true, true
					rate := []float64{0.5, 1, 2, -1}[rng.Intn(4)]
					err := v.h.SetRate(th, rate)
					t.Logf("op %d @%v: setrate stream %d to %g: %v", op, b.k.Now(), v.h.st.id, rate, err)
					vcrOpErr(t, v, seed, seq, op, "setrate", err)
				default: // crash: the recovery eviction path
					if len(live) == 0 {
						break
					}
					v := live[rng.Intn(len(live))]
					v.stop, v.excused = true, true
					t.Logf("op %d @%v: crash stream %d (cached=%v member=%v)",
						op, b.k.Now(), v.h.st.id, v.h.CacheBacked(), v.h.MulticastMember())
					b.cras.evict(v.h.st, "property-suite crash")
				}
				th.Sleep(time.Duration(150+rng.Intn(300)) * time.Millisecond)
				checkVCRInvariants(t, b, &paused, seed, seq, op)
			}

			// Wind down: let every player finish, then close what survived.
			for _, v := range viewers {
				v.stop = true
			}
			for _, v := range viewers {
				for !v.done {
					th.Sleep(50 * time.Millisecond)
				}
			}
			for _, v := range viewers {
				if !v.h.st.closed {
					v.h.Close(th)
				}
			}
			checkVCRInvariants(t, b, &paused, seed, seq, 999) // all closed: nothing reserved

			for i, v := range viewers {
				if v.expired != 0 {
					t.Errorf("seed %d seq %d viewer %d: %d chunks delivered past their discard horizon",
						seed, seq, i, v.expired)
				}
				if !v.excused && v.losses != 0 {
					t.Errorf("seed %d seq %d viewer %d: %d losses without being disturbed (stats=%+v)",
						seed, seq, i, v.losses, v.h.StreamStats())
				}
			}
		})
}
