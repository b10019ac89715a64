package core

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/ufs"
)

func TestOpsOnClosedStreamFail(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 4*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			if err := h.Close(th); err != nil {
				t.Errorf("Close: %v", err)
			}
			if err := h.Start(th); err == nil {
				t.Error("Start on closed stream succeeded")
			}
			if err := h.Stop(th); err == nil {
				t.Error("Stop on closed stream succeeded")
			}
			if err := h.Seek(th, time.Second); err == nil {
				t.Error("Seek on closed stream succeeded")
			}
			if err := h.SetRate(th, 2); err == nil {
				t.Error("SetRate on closed stream succeeded")
			}
			if err := h.Close(th); err == nil {
				t.Error("double Close succeeded")
			}
		})
}

func TestOpenMissingFile(t *testing.T) {
	movie := media.MPEG1().Generate("/nosuch", 2*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{},
		func(b *bed, th *rtm.Thread) {
			if _, err := b.cras.Open(th, movie, "/nosuch", OpenOptions{}); err == nil {
				t.Error("Open of missing file succeeded")
			}
		})
}

func TestOpenUndersizedFile(t *testing.T) {
	// Chunk table describes more bytes than the stored file holds.
	small := media.MPEG1().Generate("/m1", 2*time.Second)
	big := media.MPEG1().Generate("/m1", 10*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": small},
		func(b *bed, th *rtm.Thread) {
			if _, err := b.cras.Open(th, big, "/m1", OpenOptions{}); err == nil {
				t.Error("Open with oversized chunk table succeeded")
			}
		})
}

func TestOpenInvalidChunkTable(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 2*time.Second)
	corrupt := media.MPEG1().Generate("/m1", 2*time.Second)
	corrupt.Chunks[5].Offset += 9
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			if _, err := b.cras.Open(th, corrupt, "/m1", OpenOptions{}); err == nil {
				t.Error("Open with corrupt chunk table succeeded")
			}
		})
}

func TestSeekBeyondEndStopsFetching(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 4*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, _ := b.cras.Open(th, movie, "/m1", OpenOptions{})
			h.Start(th)
			if err := h.Seek(th, time.Hour); err != nil {
				t.Errorf("Seek past end: %v", err)
			}
			th.Sleep(2 * time.Second)
			sched := h.StreamStats().BytesScheduled
			th.Sleep(2 * time.Second)
			if h.StreamStats().BytesScheduled != sched {
				t.Error("fetching continued past end of stream")
			}
		})
}

// Property: any sequence of session operations leaves the server
// consistent — no buffer overflows, no deadline machinery wedged, and the
// stream either playable or cleanly closed.
func TestPropertySessionOpsNeverWedge(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 20*time.Second)
	f := func(ops []uint8) bool {
		if len(ops) > 12 {
			ops = ops[:12]
		}
		ok := true
		newBed(t, 7, ufs.Options{}, Config{BufferBudget: 32 << 20},
			map[string]*media.StreamInfo{"/m1": movie},
			func(b *bed, th *rtm.Thread) {
				b.cras.reads.poison = true
				h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
				if err != nil {
					ok = false
					return
				}
				closed := false
				for _, op := range ops {
					switch op % 5 {
					case 0:
						h.Start(th)
					case 1:
						h.Stop(th)
					case 2:
						h.Seek(th, time.Duration(op%18)*time.Second)
					case 3:
						h.SetRate(th, []float64{0.5, 1, 2}[int(op)%3])
					case 4:
						th.Sleep(time.Duration(op%4) * 300 * time.Millisecond)
					}
					if closed {
						break
					}
				}
				th.Sleep(2 * time.Second)
				buf := h.BufferStats()
				if buf.Overflowed != 0 {
					t.Logf("overflowed %d after ops %v", buf.Overflowed, ops)
					ok = false
				}
				if !closed {
					if err := h.Close(th); err != nil {
						ok = false
					}
				}
				if b.cras.ActiveStreams() != 0 {
					ok = false
				}
			})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
