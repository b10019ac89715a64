package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/propseed"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// checkStreamWindow sweeps the server (CheckInvariants: table ids, no open
// stream below the window, the window starting at an open stream) and
// compares every reader of the open window against a reference that
// filters the whole session table: findStream for every id in
// [-1, nextID], and the two snapshot readers.
func checkStreamWindow(t *testing.T, s *Server, where string) {
	t.Helper()
	sweep(t, s, where)
	open := 0
	footprint := int64(FixedFootprint) + s.icache.bytes + s.mcast.pinned
	for _, st := range s.streams {
		if !st.closed {
			open++
			footprint += st.buf.Capacity()
		}
	}
	for id := -1; id <= s.nextID; id++ {
		var ref *stream
		for _, st := range s.streams {
			if st.id == id && !st.closed {
				ref = st
				break
			}
		}
		if got := s.findStream(id); got != ref {
			t.Fatalf("%s: findStream(%d) = %p, linear search %p", where, id, got, ref)
		}
	}
	if got := s.ActiveStreams(); got != open {
		t.Fatalf("%s: ActiveStreams = %d, full scan %d", where, got, open)
	}
	if got := s.MemoryFootprint(); got != footprint {
		t.Fatalf("%s: MemoryFootprint = %d, full scan %d", where, got, footprint)
	}
}

// Property-based exercise of the open window: seeded random sequences of
// opens, orderly closes, lease reaps, dead-name reaps, load sheds, seeks,
// quiet spells long enough for the lease scan to reap everything, and
// shutdown, with checkStreamWindow after every operation. The seed
// defaults to a fixed value; CI overrides it with PROP_SEED and
// every failure names the seed, so a failing script replays with
//
//	PROP_SEED=<seed> go test ./internal/core -run TestStreamWindowProperties
func TestStreamWindowProperties(t *testing.T) {
	seed := propseed.Seed(t, 20261017)
	root := rand.New(rand.NewSource(seed))
	for seq := 0; seq < 6; seq++ {
		runStreamWindowSequence(t, seed, seq, rand.New(rand.NewSource(root.Int63())))
		if t.Failed() {
			return
		}
	}
}

func runStreamWindowSequence(t *testing.T, seed int64, seq int, rng *rand.Rand) {
	paths := []string{"/a", "/b"}
	movies := map[string]*media.StreamInfo{}
	for _, p := range paths {
		movies[p] = media.MPEG1().Generate(p, 20*time.Second)
	}
	newBed(t, seed^int64(seq*2654435761), ufs.Options{}, Config{}, movies,
		func(b *bed, th *rtm.Thread) {
			s := b.cras
			interval := s.Config().Interval
			var handles []*Handle
			for op := 0; op < 60 && !t.Failed(); op++ {
				var live []*Handle
				for _, h := range handles {
					if !h.st.closed {
						live = append(live, h)
					}
				}
				var pick *Handle
				if len(live) > 0 {
					pick = live[rng.Intn(len(live))]
				}
				var what string
				switch k := rng.Intn(16); {
				case k < 5 && len(live) < 6:
					p := paths[rng.Intn(len(paths))]
					h, err := s.Open(th, movies[p], p, OpenOptions{Force: true})
					if err != nil {
						t.Fatalf("seed %d seq %d op %d: force open: %v", seed, seq, op, err)
					}
					if rng.Intn(2) == 0 {
						h.Start(th)
					}
					handles = append(handles, h)
					what = fmt.Sprintf("open %d", h.st.id)
				case k < 7 && pick != nil:
					what = fmt.Sprintf("close %d", pick.st.id)
					pick.Close(th)
				case k < 8 && pick != nil:
					what = fmt.Sprintf("lease reap %d", pick.st.id)
					s.reapLease(LeaseExpired{StreamID: pick.st.id, Cycle: s.cycle})
				case k < 9 && len(handles) > 0:
					// A reap that lost the race to a close finds nothing.
					h := handles[rng.Intn(len(handles))]
					what = fmt.Sprintf("late lease reap %d", h.st.id)
					s.reapLease(LeaseExpired{StreamID: h.st.id, Cycle: s.cycle})
				case k < 10 && pick != nil:
					what = fmt.Sprintf("crash %d", pick.st.id)
					pick.Crash()
					th.Sleep(interval) // the deadline manager reaps the dead name
				case k < 11 && pick != nil:
					what = fmt.Sprintf("shed after degrading %d", pick.st.id)
					pick.st.health = Degraded
					s.shedWorstStream(s.cycle)
				case k < 13 && pick != nil:
					what = fmt.Sprintf("seek %d", pick.st.id)
					pick.Seek(th, sim.Time(rng.Intn(10))*sim.Time(time.Second))
				case k < 14:
					what = "quiet past the lease TTL"
					th.Sleep(s.Config().LeaseTTL + 2*interval)
				default:
					what = "sleep"
					th.Sleep(time.Duration(100+rng.Intn(900)) * time.Millisecond)
				}
				checkStreamWindow(t, s, fmt.Sprintf("seed %d seq %d op %d (%s)", seed, seq, op, what))
			}
			t.Logf("seq %d: %d sessions", seq, len(s.streams))
			if seq%2 == 1 {
				s.Shutdown()
				th.Sleep(interval)
				checkStreamWindow(t, s, fmt.Sprintf("seed %d seq %d after shutdown", seed, seq))
				if s.openFrom != len(s.streams) {
					t.Errorf("seed %d seq %d: window after shutdown starts at %d of %d", seed, seq, s.openFrom, len(s.streams))
				}
			}
		})
}

// FIFO churn — each new session closes the oldest — leaves the window at
// the number of open sessions however long the history grows.
func TestStreamWindowFIFOChurn(t *testing.T) {
	movie := media.MPEG1().Generate("/m", 10*time.Second)
	newBed(t, 1, ufs.Options{}, Config{}, map[string]*media.StreamInfo{"/m": movie},
		func(b *bed, th *rtm.Thread) {
			s := b.cras
			var open []*Handle
			for n := 0; n < 2000; n++ {
				h, err := s.Open(th, movie, "/m", OpenOptions{Force: true})
				if err != nil {
					t.Fatalf("open %d: %v", n, err)
				}
				open = append(open, h)
				if len(open) > 5 {
					open[0].Close(th)
					open = open[1:]
				}
			}
			if got := len(s.streams); got != 2000 {
				t.Fatalf("table holds %d sessions, want 2000", got)
			}
			if got := len(s.openStreams()); got != 5 {
				t.Errorf("window length %d after FIFO churn, want 5", got)
			}
			checkStreamWindow(t, s, "after 2000 FIFO sessions")
		})
}

// One immortal session opened first pins the window at the start of the
// table: the window is as long as the whole history, and every reader
// still matches the full scan. Closing it collapses the window onto the
// sessions still open.
func TestStreamWindowImmortalStraggler(t *testing.T) {
	movie := media.MPEG1().Generate("/m", 10*time.Second)
	newBed(t, 1, ufs.Options{}, Config{}, map[string]*media.StreamInfo{"/m": movie},
		func(b *bed, th *rtm.Thread) {
			s := b.cras
			immortal, err := s.Open(th, movie, "/m", OpenOptions{Force: true})
			if err != nil {
				t.Fatalf("open immortal: %v", err)
			}
			var open []*Handle
			for n := 0; n < 500; n++ {
				h, err := s.Open(th, movie, "/m", OpenOptions{Force: true})
				if err != nil {
					t.Fatalf("open %d: %v", n, err)
				}
				open = append(open, h)
				if len(open) > 3 {
					open[0].Close(th)
					open = open[1:]
				}
				if n%25 == 0 {
					immortal.Renew(th)
					checkStreamWindow(t, s, fmt.Sprintf("after session %d", n))
				}
			}
			if got, want := len(s.openStreams()), len(s.streams); got != want {
				t.Errorf("window length %d with the first session open, want the whole table (%d)", got, want)
			}
			checkStreamWindow(t, s, "with the immortal open")
			immortal.Close(th)
			if got := len(s.openStreams()); got != 3 {
				t.Errorf("window length %d after the immortal closed, want 3", got)
			}
			checkStreamWindow(t, s, "after the immortal closed")
		})
}

// dropCompleted must leave the watchdog set in exactly the order the
// per-fragment splice it replaces produced: for each completion in doneQ
// order, remove that fragment, then append whatever it re-submits (a retry
// of itself, or reconstruction reads). Random issue sets, random
// completion orders and random retries, carried across many cycles.
func TestDropCompletedMatchesSplice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	splice := func(set []*readFrag, fg *readFrag) []*readFrag {
		for i, f := range set {
			if f == fg {
				return append(set[:i], set[i+1:]...)
			}
		}
		return set
	}
	for trial := 0; trial < 50; trial++ {
		s := &Server{}
		var ref []*readFrag
		issue := func(fg *readFrag) {
			s.inflight = append(s.inflight, fg)
			ref = append(ref, fg)
		}
		for i := 0; i < 1+rng.Intn(40); i++ {
			issue(&readFrag{lba: int64(i)})
		}
		for cycle := 0; cycle < 30; cycle++ {
			// A random subset completes, in a random order.
			var done []*readFrag
			for _, i := range rng.Perm(len(ref)) {
				if rng.Intn(3) == 0 {
					done = append(done, ref[i])
				}
			}
			s.doneQ = append(s.doneQ[:0], done...)
			s.dropCompleted()
			var resubmit [][]*readFrag
			for _, fg := range done {
				var again []*readFrag
				switch rng.Intn(4) {
				case 0:
					again = []*readFrag{fg} // retry on the same member
				case 1:
					again = []*readFrag{{lba: -1}, {lba: -2}} // reconstruction reads
				}
				resubmit = append(resubmit, again)
			}
			for i, fg := range done {
				ref = splice(ref, fg)
				ref = append(ref, resubmit[i]...)
				s.inflight = append(s.inflight, resubmit[i]...)
			}
			// New reads of the next batch.
			for i := 0; i < rng.Intn(6); i++ {
				issue(&readFrag{lba: int64(1000 + cycle*10 + i)})
			}
			if len(s.inflight) != len(ref) {
				t.Fatalf("trial %d cycle %d: watchdog set has %d fragments, splice rule %d", trial, cycle, len(s.inflight), len(ref))
			}
			for i := range ref {
				if s.inflight[i] != ref[i] {
					t.Fatalf("trial %d cycle %d: watchdog set differs from the splice rule at %d", trial, cycle, i)
				}
				if ref[i].landed {
					t.Fatalf("trial %d cycle %d: fragment %d left marked", trial, cycle, i)
				}
			}
		}
	}
}
