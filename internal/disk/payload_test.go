package disk

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// The read payload contract: Data is the payload buffer in both directions.
// A read with nil Data only costs time; a read with Data gets the sector
// contents copied in, unwritten sectors zero-filled, and Done receives
// r.Data.

// sectorPattern is a recognizable non-zero payload for one sector.
func sectorPattern(lba int64) []byte {
	return bytes.Repeat([]byte{byte(lba%250 + 1)}, 512)
}

// filled returns n bytes of 0xFF, so a read that skips a byte shows it.
func filled(n int) []byte { return bytes.Repeat([]byte{0xFF}, n) }

func TestTimingOnlyReadMovesNothing(t *testing.T) {
	e, d := testDisk(1)
	for lba := int64(100); lba < 104; lba++ {
		d.PokeSector(lba, sectorPattern(lba))
	}
	stored := d.StoredSectors()
	var got []byte
	called := false
	r := &Request{LBA: 100, Count: 8, Done: func(_ *Request, data []byte) {
		called, got = true, data
	}}
	d.Submit(r)
	e.Run()
	if !called || got != nil {
		t.Fatalf("timing-only read: called=%v data=%v, want called with nil", called, got)
	}
	if r.Completed <= r.Started || d.Stats().BusyTime <= 0 {
		t.Fatalf("timing-only read charged no time: started %v completed %v", r.Started, r.Completed)
	}
	if d.StoredSectors() != stored {
		t.Fatalf("StoredSectors = %d after read, want %d", d.StoredSectors(), stored)
	}
	for lba := int64(100); lba < 104; lba++ {
		if !bytes.Equal(d.PeekSector(lba), sectorPattern(lba)) {
			t.Fatalf("sector %d changed by a timing-only read", lba)
		}
	}
}

func TestReadIntoCallerBuffer(t *testing.T) {
	e, d := testDisk(1)
	d.PokeSector(201, sectorPattern(201))
	d.PokeSector(203, sectorPattern(203))
	buf := filled(4 * 512)
	var got []byte
	d.Submit(&Request{LBA: 200, Count: 4, Data: buf, Done: func(_ *Request, data []byte) { got = data }})
	e.Run()
	if len(got) != len(buf) || &got[0] != &buf[0] {
		t.Fatal("Done did not receive the caller's buffer")
	}
	for i := int64(0); i < 4; i++ {
		want := make([]byte, 512)
		if i%2 == 1 {
			want = sectorPattern(200 + i)
		}
		if !bytes.Equal(buf[i*512:(i+1)*512], want) {
			t.Fatalf("sector %d: written sectors must be copied, unwritten ones zeroed", 200+i)
		}
	}
}

// payloadVolume builds a small volume of n members with a 3-sector stripe
// unit, RAID-0 or rotating parity.
func payloadVolume(t *testing.T, e *sim.Engine, n int, parity bool) *Volume {
	t.Helper()
	g := Geometry{Cylinders: 20, Heads: 2, SectorsPerTrack: 16, SectorSize: 512}
	_, p := ST32550N()
	members := make([]*Disk, n)
	for i := range members {
		members[i] = New(e, fmt.Sprintf("sd%d", i), g, p)
	}
	build := NewVolume
	if parity {
		build = NewParityVolume
	}
	v, err := build("vol0", members, 3)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// checkVolumeRead writes every other logical sector of [lba, lba+count),
// optionally kills member dead, and reads the range into a 0xFF buffer:
// written sectors must come back, unwritten ones as zeros, and Done must
// receive the caller's buffer. A nil-Data read of the same range must
// deliver nil.
func checkVolumeRead(t *testing.T, v *Volume, e *sim.Engine, lba int64, count, dead int) {
	t.Helper()
	want := make([]byte, count*512)
	for i := 0; i < count; i += 2 {
		sec := sectorPattern(lba + int64(i))
		v.PokeSector(lba+int64(i), sec)
		copy(want[i*512:], sec)
	}
	if dead >= 0 {
		v.SetDead(dead, true)
	}
	buf := filled(count * 512)
	var got, timingOnly []byte
	v.Submit(&Request{LBA: lba, Count: count, Data: buf, Done: func(_ *Request, data []byte) { got = data }})
	timingCalled := false
	v.Submit(&Request{LBA: lba, Count: count, Done: func(_ *Request, data []byte) {
		timingCalled, timingOnly = true, data
	}})
	e.Run()
	if len(got) != len(buf) || &got[0] != &buf[0] {
		t.Fatal("Done did not receive the caller's buffer")
	}
	for i := 0; i < count; i++ {
		if !bytes.Equal(buf[i*512:(i+1)*512], want[i*512:(i+1)*512]) {
			t.Fatalf("logical sector %d read back wrong", lba+int64(i))
		}
	}
	if !timingCalled || timingOnly != nil {
		t.Fatalf("timing-only volume read: called=%v data=%v, want called with nil", timingCalled, timingOnly)
	}
}

func TestVolumeReadIntoCallerBuffer(t *testing.T) {
	e := sim.NewEngine(1)
	v := payloadVolume(t, e, 4, false)
	// 20 sectors from a mid-unit start: every member, partial first and
	// last units.
	checkVolumeRead(t, v, e, 5, 20, -1)
}

func TestParityVolumeDegradedReadIntoCallerBuffer(t *testing.T) {
	for dead := 0; dead < 4; dead++ {
		t.Run(fmt.Sprintf("dead%d", dead), func(t *testing.T) {
			e := sim.NewEngine(1)
			v := payloadVolume(t, e, 4, true)
			checkVolumeRead(t, v, e, 4, 25, dead)
			if st := v.Disk(dead).Stats(); st.Served[0]+st.Served[1] != 0 {
				t.Fatalf("dead member %d served %v requests", dead, st.Served)
			}
		})
	}
}

func TestReadPayloadSizeMismatchPanics(t *testing.T) {
	e, d := testDisk(1)
	for name, dev := range map[string]interface{ Submit(*Request) }{
		"disk":   d,
		"raid0":  payloadVolume(t, e, 4, false),
		"parity": payloadVolume(t, e, 4, true),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mismatched read payload did not panic", name)
				}
			}()
			dev.Submit(&Request{LBA: 0, Count: 2, Data: make([]byte, 512)})
		}()
	}
}
