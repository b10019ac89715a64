package core

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/ufs"
)

// Property-based exercise of the multicast batching + pinned prefix layer:
// seeded random viewer populations (open, close, seek, server-side crash)
// against one hot title, with the fan-out/prefix accounting and group
// structure swept (CheckInvariants) after every operation and the
// delivered frame sequence of every undisturbed viewer verified at the
// end. The seed defaults to a fixed value so the suite is deterministic;
// CI (and anyone chasing a failure) overrides it with MCAST_PROP_SEED, and
// every failure message carries the seed so the exact sequence replays with
//
//	MCAST_PROP_SEED=<seed> go test ./internal/core -run TestMulticastProperties
func TestMulticastProperties(t *testing.T) {
	seed := int64(20260805)
	if env := os.Getenv("MCAST_PROP_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("MCAST_PROP_SEED=%q: %v", env, err)
		}
		seed = v
	}
	t.Logf("property seed %d (override with MCAST_PROP_SEED)", seed)
	root := rand.New(rand.NewSource(seed))
	for seq := 0; seq < 8; seq++ {
		runMcastSequence(t, seed, seq, rand.New(rand.NewSource(root.Int63())))
		if t.Failed() {
			return // one broken sequence is enough; later ones only add noise
		}
	}
}

// propViewer is one session under the random population: its handle, its
// player's progress, and whether a chaos op (seek, crash, early close)
// excused it from the zero-loss obligation.
type propViewer struct {
	h       *Handle
	stop    bool // tells the player to wind down
	done    bool // player exited
	excused bool // disturbed by a chaos op; losses tolerated
	losses  int
	lostAt  []int // frame indices that missed their deadline
	wrong   int   // frames delivered with the wrong chunk index
	played  int
}

// propPlay consumes frames in order from frame 0, like play but
// interruptible: the op driver raises v.stop before disturbing the session.
func propPlay(b *bed, th *rtm.Thread, v *propViewer, frames int) {
	info := v.h.Info()
	const poll = 2 * time.Millisecond
	for i := 0; i < frames && !v.stop; i++ {
		want := info.Chunks[i]
		due := v.h.ClockStartsAt(want.Timestamp)
		if due < 0 { // clock stopped: suspended or crashed under us
			break
		}
		for b.k.Now() < due {
			th.SleepUntil(due)
			// The server slides the start of a session disturbed during its
			// initial delay (multicast pre-start re-arm); ClockStartsAt is
			// the authoritative deadline source, so pick up the new value.
			if d := v.h.ClockStartsAt(want.Timestamp); d > due {
				due = d
			} else {
				break
			}
		}
		deadline := due + 3*want.Duration
		for !v.stop {
			if c, ok := v.h.Get(want.Timestamp); ok {
				if c.Index != i {
					v.wrong++
				}
				v.played++
				break
			}
			if b.k.Now() >= deadline {
				v.losses++
				v.lostAt = append(v.lostAt, i)
				break
			}
			th.Sleep(poll)
		}
	}
	v.done = true
}

// runMcastSequence drives one random viewer population against one hot
// title: opens dominate early, and closes, seeks and server-side crashes
// (the eviction path recovery uses) disturb the groups mid-play. Viewers
// no chaos op touched must deliver frames 0..n in order with zero losses.
func runMcastSequence(t *testing.T, seed int64, seq int, rng *rand.Rand) {
	const frames = 75
	movie := media.MPEG1().Generate("/hot", 12*time.Second)
	cfg := Config{
		BatchWindow:  time.Duration(500+rng.Intn(1500)) * time.Millisecond,
		PrefixBudget: int64(2+rng.Intn(7)) << 20,
	}
	if os.Getenv("MCAST_PROP_NOBATCH") != "" {
		cfg.BatchWindow = 0 // control: same ops, multicast off
	}
	newBed(t, seed^int64(seq*2654435761), ufs.Options{}, cfg,
		map[string]*media.StreamInfo{"/hot": movie},
		func(b *bed, th *rtm.Thread) {
			var viewers []*propViewer
			prefixPinned := int64(0)

			for op := 0; op < 22 && !t.Failed(); op++ {
				live := func() []*propViewer {
					var out []*propViewer
					for _, v := range viewers {
						if !v.stop && !v.h.st.closed {
							out = append(out, v)
						}
					}
					return out
				}()
				switch k := rng.Intn(10); {
				case k < 5 && len(live) < 7: // open a new viewer
					h, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
					if err != nil {
						t.Logf("op %d @%v: open refused: %v", op, b.k.Now(), err)
						break // admission refusal is a legitimate outcome
					}
					feedID, feedNS := -1, -1
					if g := h.st.dep; g != nil && g.producer != nil {
						feedID, feedNS = g.producer.id, g.producer.nextStamp
					}
					t.Logf("op %d @%v: open viewer %d (stream %d, member=%v feed=%d feedNS=%d ns=%d fromPrefix=%d fromGroup=%d)",
						op, b.k.Now(), len(viewers), h.st.id, h.MulticastMember(), feedID, feedNS, h.st.nextStamp,
						h.st.stats.ChunksFromPrefix, h.st.stats.ChunksFromGroup)
					h.Start(th)
					v := &propViewer{h: h}
					viewers = append(viewers, v)
					b.k.NewThread("viewer", rtm.PrioRTLow, 0, func(th2 *rtm.Thread) {
						propPlay(b, th2, v, frames)
					})
				case k < 7 && len(live) > 0: // seek: breaks the fan-out contract
					v := live[rng.Intn(len(live))]
					v.stop = true
					v.excused = true
					t.Logf("op %d @%v: seek viewer (stream %d, member=%v feed=%v)", op, b.k.Now(), v.h.st.id, v.h.MulticastMember(), v.h.st.prod[shareFanout] != nil)
					v.h.Seek(th, time.Duration(rng.Intn(8))*time.Second)
				case k < 9 && len(live) > 0: // crash: the recovery eviction path
					v := live[rng.Intn(len(live))]
					v.stop = true
					v.excused = true
					t.Logf("op %d @%v: crash viewer (stream %d, member=%v feed=%v)", op, b.k.Now(), v.h.st.id, v.h.MulticastMember(), v.h.st.prod[shareFanout] != nil)
					b.cras.evict(v.h.st, "property-suite crash")
				default: // close a viewer whose player already finished
					for _, v := range live {
						if v.done {
							v.h.Close(th)
							break
						}
					}
				}
				th.Sleep(time.Duration(150+rng.Intn(300)) * time.Millisecond)
				sweep(t, b.cras, fmt.Sprintf("seed %d seq %d op %d", seed, seq, op))
				if p := b.cras.mcast.pinned; p < prefixPinned {
					t.Errorf("seed %d seq %d op %d: prefix pins shrank %d -> %d (never evicted)",
						seed, seq, op, prefixPinned, p)
				} else {
					prefixPinned = p
				}
			}

			// Wind down: let every undisturbed player finish, then close all.
			for _, v := range viewers {
				for !v.done {
					th.Sleep(100 * time.Millisecond)
				}
			}
			for _, v := range viewers {
				if !v.h.st.closed {
					v.h.Close(th)
				}
			}
			sweep(t, b.cras, fmt.Sprintf("seed %d seq %d all closed", seed, seq)) // no group, no reservation

			// Survivors: frames 0..n delivered in order, nothing lost, nothing
			// duplicated or substituted.
			for i, v := range viewers {
				if v.excused {
					continue
				}
				if v.losses != 0 || v.wrong != 0 {
					t.Errorf("seed %d seq %d viewer %d: %d losses at %v, %d wrong-index frames (member=%v prefix=%v stats=%+v)",
						seed, seq, i, v.losses, v.lostAt, v.wrong, v.h.MulticastMember(), v.h.PrefixStarted(), v.h.StreamStats())
				}
				if v.played+v.losses != frames && v.h.ClockStartsAt(0) >= 0 {
					t.Errorf("seed %d seq %d viewer %d: played %d of %d frames without being disturbed",
						seed, seq, i, v.played, frames)
				}
			}
		})
}
