package disk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestVolumeReusesFanInRecords runs rounds of concurrent logical reads and
// writes on a 4-member stripe whose member 1 stalls its first two requests
// (the host cancels each once the volume goes quiet) and whose member 2
// fails every transfer over a bad region. It runs once with the record
// pool poisoned, so a record handed back before its last member request
// completed would complete into garbage, and once live. Every logical
// request must complete exactly once; a read that succeeds must return
// the bytes the volume holds, and a write that succeeds must have stored
// its payload. Live, the records must be reused: after twelve rounds of
// eight requests the pool holds no more records than were ever in flight.
func TestVolumeReusesFanInRecords(t *testing.T) {
	for _, poison := range []bool{true, false} {
		t.Run(fmt.Sprintf("poison=%v", poison), func(t *testing.T) { fanInRounds(t, poison) })
	}
}

func fanInRounds(t *testing.T, poison bool) {
	const rounds, perRound, slot = 12, 8, 120
	e := sim.NewEngine(1)
	g, p := ST32550N()
	g.Cylinders = 40
	members := make([]*Disk, 4)
	for i := range members {
		members[i] = New(e, fmt.Sprintf("sd%d", i), g, p)
	}
	members[1].SetFaultModel(NewFaultModel(e.RNG("stall"), FaultConfig{StallProb: 1, MaxStalls: 2}))
	members[2].SetFaultModel(NewFaultModel(e.RNG("bad"), FaultConfig{BadRegions: []BadRegion{{LBA: 0, Sectors: 96}}}))
	v, err := NewVolume("fv", members, 16)
	if err != nil {
		t.Fatal(err)
	}
	v.poison = poison
	rng := rand.New(rand.NewSource(1))
	v.PokeSectors(0, randomSectors(rng, perRound*slot))

	var aborted, failed, ok int
	for round := 0; round < rounds; round++ {
		write := round%2 == 1
		type call struct {
			r    *Request
			data []byte // a write's payload
			want []byte // a read's expected bytes
			done int
		}
		calls := make([]*call, perRound)
		for i := range calls {
			c := &call{}
			lba, count := int64(i*slot+rng.Intn(20)), 1+rng.Intn(100)
			c.r = &Request{LBA: lba, Count: count, Write: write, Done: func(*Request, []byte) { c.done++ }}
			if write {
				c.data = randomSectors(rng, count)
				c.r.Data = c.data
			} else {
				c.want = make([]byte, count*512)
				v.PeekSectors(lba, c.want)
				c.r.Data = make([]byte, count*512)
			}
			calls[i] = c
		}
		for _, c := range calls {
			v.Submit(c.r)
		}
		for {
			e.Run()
			stalled := false
			for _, d := range v.disks {
				if d.Stalled() {
					d.Cancel(d.active)
					stalled = true
				}
			}
			if !stalled {
				break
			}
		}
		for i, c := range calls {
			switch {
			case c.done != 1:
				t.Fatalf("round %d request %d: Done called %d times", round, i, c.done)
			case errors.Is(c.r.Err, ErrAborted):
				aborted++
			case c.r.Err != nil:
				failed++
			case write:
				ok++
				got := make([]byte, len(c.data))
				v.PeekSectors(c.r.LBA, got)
				if !bytes.Equal(got, c.data) {
					t.Fatalf("round %d write %d: the volume does not hold its payload", round, i)
				}
			default:
				ok++
				if !bytes.Equal(c.r.Data, c.want) {
					t.Fatalf("round %d read %d: wrong bytes", round, i)
				}
			}
		}
	}
	if aborted == 0 || failed == 0 || ok == 0 {
		t.Errorf("%d aborted, %d failed, %d clean requests; want each > 0", aborted, failed, ok)
	}
	switch idle := len(v.fanFree); {
	case poison && idle != 0:
		t.Errorf("poisoned pool holds %d records, want none", idle)
	case !poison && (idle == 0 || idle > perRound):
		t.Errorf("pool holds %d records after %d requests, at most %d in flight", idle, rounds*perRound, perRound)
	}
}
