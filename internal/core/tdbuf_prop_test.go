package core

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/sim"
)

// Property-based exercise of the time-driven buffer: seeded random op
// sequences with full-state invariant checks after every operation. The
// seed defaults to a fixed value so the suite is deterministic; CI (and
// anyone chasing a failure) overrides it with TDBUF_PROP_SEED, and every
// failure message carries the seed so the exact sequence replays with
//
//	TDBUF_PROP_SEED=<seed> go test ./internal/core -run TestTDBufferProperties
func TestTDBufferProperties(t *testing.T) {
	seed := int64(20260805)
	if env := os.Getenv("TDBUF_PROP_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("TDBUF_PROP_SEED=%q: %v", env, err)
		}
		seed = v
	}
	t.Logf("property seed %d (override with TDBUF_PROP_SEED)", seed)
	root := rand.New(rand.NewSource(seed))
	for seq := 0; seq < 40; seq++ {
		runTDBufferSequence(t, seed, seq, rand.New(rand.NewSource(root.Int63())))
		if t.Failed() {
			return // one broken sequence is enough; later ones only add noise
		}
	}
}

// runTDBufferSequence drives one buffer through a random op sequence. The
// generator leans on the same chunk grid the server uses — fixed duration,
// index == timestamp/duration — so Insert's overlap rule is exercised by
// duplicate timestamps rather than degenerate half-overlapping chunks,
// and a shadow model of the expected resident set stays trivial to keep.
func runTDBufferSequence(t *testing.T, seed int64, seq int, rng *rand.Rand) {
	const dur = 33 * time.Millisecond // one chunk of ~30 fps media
	capacity := int64(4000 + rng.Intn(16000))
	b := NewTDBuffer(capacity, 100*time.Millisecond)

	fail := func(op string, format string, args ...interface{}) {
		t.Errorf("seed %d seq %d after %s: %s", seed, seq, op, fmt.Sprintf(format, args...))
	}

	horizon := sim.Time(0) // high-water mark of every tdiscard passed in
	// The read-mark reference: the indices a Get has returned, forgotten
	// when their chunk is discarded and all at once by Reset. It matches
	// marks kept per resident chunk because no two resident chunks share
	// an Index on the chunk grid.
	read := map[int]bool{}
	var lateDiscard int64
	for op := 0; op < 400 && !t.Failed(); op++ {
		var desc string
		switch k := rng.Intn(11); {
		case k < 5: // Insert dominates: the server stamps far more than it seeks
			idx := rng.Intn(120)
			c := BufferedChunk{
				Index:     idx,
				Timestamp: sim.Time(idx) * dur,
				Duration:  dur,
				Size:      int64(200 + rng.Intn(800)),
				StampedAt: sim.Time(op) * time.Millisecond,
			}
			if c.Timestamp+c.Duration <= horizon {
				// The scheduler never stamps a fully expired chunk (the
				// ChunksLate skip rule); mirror that so the horizon
				// invariant below is meaningful.
				continue
			}
			wasAt, resident := b.At(c.Timestamp)
			ok := b.Insert(c)
			desc = fmt.Sprintf("Insert(idx %d, %d B) = %v", idx, c.Size, ok)
			if ok && resident {
				fail(desc, "insert accepted over resident chunk %+v", wasAt)
			}
			if !ok && !resident && b.Bytes()+c.Size <= b.Capacity() {
				fail(desc, "insert refused with %d/%d bytes free and no overlap",
					b.Capacity()-b.Bytes(), b.Capacity())
			}
		case k < 7: // DiscardBefore with a monotone or regressing horizon
			td := sim.Time(rng.Intn(140)) * dur
			for _, c := range b.chunks {
				if c.Timestamp < td {
					if !read[c.Index] {
						lateDiscard++
					}
					delete(read, c.Index)
				}
			}
			n := b.DiscardBefore(td)
			desc = fmt.Sprintf("DiscardBefore(%v) = %d", td, n)
			if td > horizon {
				horizon = td
			}
			for i, c := range b.chunks {
				if c.Timestamp < td {
					fail(desc, "chunk %d stamped %v survives its own discard at %v", i, c.Timestamp, td)
				}
			}
		case k < 8:
			c := int64(2000 + rng.Intn(20000))
			b.SetCapacity(c)
			desc = fmt.Sprintf("SetCapacity(%d)", c)
		case k < 9:
			at := sim.Time(rng.Intn(120))*dur + sim.Time(rng.Intn(int(dur)))
			c, ok := b.Get(at)
			desc = fmt.Sprintf("Get(%v) = %v", at, ok)
			if ok {
				read[c.Index] = true
			}
			if ok && (c.Timestamp > at || at >= c.Timestamp+c.Duration) {
				fail(desc, "returned chunk [%v,%v) does not cover query", c.Timestamp, c.Timestamp+c.Duration)
			}
			if ok && c.Timestamp+c.Duration <= horizon {
				// A chunk may be stamped late — covering the horizon from
				// just behind it, within the jitter allowance — but one
				// wholly behind the discard horizon must never surface.
				fail(desc, "returned chunk [%v,%v), wholly before discard horizon %v",
					c.Timestamp, c.Timestamp+c.Duration, horizon)
			}
		case k < 10:
			at := sim.Time(rng.Intn(140)) * dur
			got := b.Peek(at)
			_, want := b.At(at)
			desc = fmt.Sprintf("Peek(%v) = %v", at, got)
			if got != want {
				fail(desc, "Peek disagrees with At = %v", want)
			}
		default: // a seek: the horizon restarts, so popped indices come back
			b.Reset()
			desc = "Reset"
			read = map[int]bool{}
			horizon = 0
		}
		if b.LateDiscard != lateDiscard {
			fail(desc, "LateDiscard = %d, the index-map reference counts %d", b.LateDiscard, lateDiscard)
		}
		checkTDBufferInvariants(t, b, horizon, fail, desc)
	}
}

// checkTDBufferInvariants asserts the properties every TDBuffer operation
// must preserve: the structural ones TDBuffer.check sweeps (order, no
// overlap, exact byte accounting within capacity), and nothing fully
// expired (wholly behind the discard horizon) resident.
func checkTDBufferInvariants(t *testing.T, b *TDBuffer, horizon sim.Time,
	fail func(op, format string, args ...interface{}), desc string) {
	for i, c := range b.chunks {
		if c.Timestamp+c.Duration <= horizon {
			fail(desc, "chunk %d [%v,%v) survives wholly behind discard horizon %v",
				i, c.Timestamp, c.Timestamp+c.Duration, horizon)
		}
	}
	if err := b.check(); err != nil {
		fail(desc, "%v", err)
	}
}
