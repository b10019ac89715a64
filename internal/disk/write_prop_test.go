package disk

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/propseed"
	"repro/internal/sim"
)

// scatterCopySubmit is Volume.Submit's write path as it was before member
// writes went timing-only: every data fragment carried a payload copied out
// of the logical one at submit (scatterCopyPayload), and the member disk
// stored it when the fragment completed. It stays here, copied, as the
// reference the timing-only path must agree with.
func scatterCopySubmit(v *Volume, r *Request) {
	r.Submitted = v.disks[0].eng.Now()
	var children []*Request
	var disks []int
	for _, f := range v.Fragments(nil, r.LBA, r.Count) {
		if v.Dead(f.Disk) {
			continue
		}
		children = append(children, &Request{
			LBA: f.LBA, Count: f.Count, Write: true,
			Data:     scatterCopyPayload(v, r, f),
			RealTime: r.RealTime,
		})
		disks = append(disks, f.Disk)
	}
	if v.parity {
		nd := int64(len(v.disks) - 1)
		firstRow := (r.LBA / v.stripe) / nd
		lastRow := ((r.LBA + int64(r.Count) - 1) / v.stripe) / nd
		for row := firstRow; row <= lastRow; row++ {
			p := v.ParityDisk(row)
			if v.dead[p] {
				continue
			}
			payload := v.parityRowAfterWrite(row, r)
			if allZero(payload) {
				payload = nil
			}
			children = append(children, &Request{
				LBA: row * v.stripe, Count: int(v.stripe), Write: true,
				Data:     payload,
				RealTime: r.RealTime,
			})
			disks = append(disks, p)
		}
	}
	n := len(children)
	done := func(cr *Request, _ []byte) {
		if cr.Err != nil && r.Err == nil {
			r.Err = cr.Err
		}
		if r.Started == 0 || cr.Started < r.Started {
			r.Started = cr.Started
		}
		if cr.Completed > r.Completed {
			r.Completed = cr.Completed
		}
		if n--; n == 0 && r.Done != nil {
			r.Done(r, nil)
		}
	}
	for i, c := range children {
		c.Done = done
		v.disks[disks[i]].Submit(c)
	}
}

// scatterCopyPayload is the reference's per-fragment payload copy: the
// logical payload's units inside fragment f, in member order. A nil
// logical payload stays nil.
func scatterCopyPayload(v *Volume, r *Request, f Frag) []byte {
	if r.Data == nil {
		return nil
	}
	ss := int64(v.geo.SectorSize)
	out := make([]byte, int64(f.Count)*ss)
	for u := v.units(r.LBA, r.Count); u.next(); {
		if u.disk != f.Disk || u.dlba < f.LBA || u.dlba >= f.LBA+int64(f.Count) {
			continue
		}
		copy(out[(u.dlba-f.LBA)*ss:], r.Data[u.off*ss:(u.off+int64(u.count))*ss])
	}
	return out
}

// writeVolume builds one side of a write comparison: n members of
// geometry g and the given stripe unit, RAID-0 or parity.
func writeVolume(t *testing.T, e *sim.Engine, g Geometry, n int, stripe int64, parity bool) *Volume {
	t.Helper()
	_, p := ST32550N()
	members := make([]*Disk, n)
	for i := range members {
		members[i] = New(e, fmt.Sprintf("sd%d", i), g, p)
	}
	build := NewVolume
	if parity {
		build = NewParityVolume
	}
	v, err := build("wvol", members, stripe)
	if err != nil {
		t.Fatalf("volume n=%d stripe=%d geo=%+v parity=%v: %v", n, stripe, g, parity, err)
	}
	return v
}

// failEveryNth fails member writes whose position hashes to zero mod k: a
// deterministic media error both sides of a comparison see alike.
func failEveryNth(k int64) func(r *Request) error {
	return func(r *Request) error {
		if r.Write && (r.LBA*31+int64(r.Count))%k == 0 {
			return ErrMedium
		}
		return nil
	}
}

// writeOutcome is what a logical write's completion shows its caller.
type writeOutcome struct {
	called                       int
	submitted, started, complete sim.Time
	err                          error
}

// TestVolumeWriteMatchesScatterCopy runs the same random logical writes
// through Volume.Submit and through the scatter-copy reference on twin
// volumes, and requires the same member sector stores, the same member
// statistics and the same completion (timing and Err) for every write.
// Volumes are RAID-0 and parity, 2–6 members, stripe units of 1–128
// sectors; writes are unaligned, some sparse (nil Data), some all-zero,
// some rewriting earlier data, several in flight at once. Some volumes
// fail member writes, and some parity volumes run with a dead member.
// The seed defaults to a fixed value; PROP_SEED moves it:
//
//	PROP_SEED=<seed> go test ./internal/disk -run TestVolumeWriteMatchesScatterCopy
func TestVolumeWriteMatchesScatterCopy(t *testing.T) {
	root := rand.New(rand.NewSource(propseed.Seed(t, 20261018)))
	for cfg := 0; cfg < 24; cfg++ {
		rng := rand.New(rand.NewSource(root.Int63()))
		parity := cfg%2 == 1
		n := 2 + rng.Intn(5)
		if parity {
			n = 3 + rng.Intn(4)
		}
		g := Geometry{Cylinders: 4 + rng.Intn(12), Heads: 1 + rng.Intn(3), SectorsPerTrack: 8 + rng.Intn(40), SectorSize: 512}
		stripe := 1 + rng.Int63n(min(128, g.TotalSectors()))
		ew, eo := sim.NewEngine(1), sim.NewEngine(1)
		work, ref := writeVolume(t, ew, g, n, stripe, parity), writeVolume(t, eo, g, n, stripe, parity)
		name := fmt.Sprintf("cfg %d (n=%d stripe=%d parity=%v)", cfg, n, stripe, parity)
		total := work.Geometry().TotalSectors()

		// Existing data to rewrite over, poked alike on both sides.
		for i := 0; i < 6; i++ {
			lba := rng.Int63n(total)
			data := randomSectors(rng, int(min(total-lba, 1+rng.Int63n(2*stripe))))
			work.PokeSectors(lba, data)
			ref.PokeSectors(lba, data)
		}
		if cfg%3 == 2 {
			for i := range work.disks {
				work.Disk(i).SetFaultInjector(failEveryNth(5))
				ref.Disk(i).SetFaultInjector(failEveryNth(5))
			}
		}
		if parity && cfg%4 == 1 {
			dead := rng.Intn(n)
			work.SetDead(dead, true)
			ref.SetDead(dead, true)
			name += fmt.Sprintf(" dead=%d", dead)
		}

		var prev [][2]int64 // earlier write ranges, for rewrites
		for round := 0; round < 12; round++ {
			inflight := 1 + rng.Intn(4)
			got, want := make([]writeOutcome, inflight), make([]writeOutcome, inflight)
			for i := 0; i < inflight; i++ {
				lba := rng.Int63n(total)
				count := int(min(total-lba, 1+rng.Int63n(3*stripe*int64(n))))
				if len(prev) > 0 && rng.Intn(3) == 0 {
					r := prev[rng.Intn(len(prev))]
					lba, count = r[0], int(r[1])
				}
				prev = append(prev, [2]int64{lba, int64(count)})
				var data []byte
				switch rng.Intn(5) {
				case 0: // sparse
				case 1:
					data = make([]byte, count*512)
				default:
					data = randomSectors(rng, count)
				}
				rt := rng.Intn(2) == 0
				submit := func(out *writeOutcome, sub func(*Request)) {
					sub(&Request{LBA: lba, Count: count, Write: true, Data: data, RealTime: rt,
						Done: func(r *Request, _ []byte) {
							*out = writeOutcome{out.called + 1, r.Submitted, r.Started, r.Completed, r.Err}
						}})
				}
				submit(&got[i], work.Submit)
				submit(&want[i], func(r *Request) { scatterCopySubmit(ref, r) })
			}
			ew.Run()
			eo.Run()
			for i := range got {
				if got[i] != want[i] || got[i].called != 1 {
					t.Fatalf("%s round %d write %d: completion %+v, reference %+v", name, round, i, got[i], want[i])
				}
			}
		}
		for i := range work.disks {
			wd, od := work.Disk(i), ref.Disk(i)
			if wd.Stats() != od.Stats() {
				t.Fatalf("%s member %d stats %+v, reference %+v", name, i, wd.Stats(), od.Stats())
			}
			if wd.StoredSectors() != od.StoredSectors() {
				t.Fatalf("%s member %d stores %d sectors, reference %d", name, i, wd.StoredSectors(), od.StoredSectors())
			}
			mt := g.TotalSectors()
			a, b := make([]byte, mt*512), make([]byte, mt*512)
			wd.PeekSectors(0, a)
			od.PeekSectors(0, b)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s member %d sector store differs from the reference", name, i)
			}
		}
	}
}

// randomSectors returns count sectors of random bytes with about one
// sector in five all zeros, which the store keeps sparse.
func randomSectors(rng *rand.Rand, count int) []byte {
	out := make([]byte, count*512)
	for s := 0; s < count; s++ {
		if rng.Intn(5) != 0 {
			rng.Read(out[s*512 : (s+1)*512])
		}
	}
	return out
}

// TestStripedWriteMovesPayloadOnce checks that a striped write allocates
// nothing for its payload: rewriting 64 sectors across four members, like
// reading them into a caller's buffer, allocates only the caller's own
// request (the member requests and the fan-in come from the volume's
// pool), and far fewer bytes than the payload.
func TestStripedWriteMovesPayloadOnce(t *testing.T) {
	e := sim.NewEngine(1)
	v := payloadVolume(t, e, 4, false)
	buf := randomSectors(rand.New(rand.NewSource(1)), 64)
	io := func(write bool) func() {
		return func() {
			v.Submit(&Request{LBA: 7, Count: 64, Write: write, Data: buf})
			e.Run()
		}
	}
	io(true)() // the first write allocates the sectors' store buffers
	writes, reads := testing.AllocsPerRun(20, io(true)), testing.AllocsPerRun(20, io(false))
	if writes > 1 || reads > 1 {
		t.Errorf("striped write: %v allocations, the read of the same range %v; want the caller's request alone", writes, reads)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		io(true)()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= uint64(len(buf))/4 {
		t.Errorf("striped write of %d bytes allocates %d bytes", len(buf), per)
	}
}

// BenchmarkVolumeWriteSync times a synchronous 64 KB write to a 4-disk
// stripe of 32 KB units, rewriting stored data as file-system write-backs
// do. It allocates nothing: the request, its member requests and the
// fan-in live in a pooled record.
func BenchmarkVolumeWriteSync(b *testing.B) {
	e := sim.NewEngine(1)
	g, p := ST32550N()
	members := make([]*Disk, 4)
	for i := range members {
		members[i] = New(e, fmt.Sprintf("sd%d", i), g, p)
	}
	v, err := NewVolume("vol0", members, 64)
	if err != nil {
		b.Fatal(err)
	}
	data := randomSectors(rand.New(rand.NewSource(1)), 128)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	e.Spawn("writer", func(pr *sim.Proc) {
		v.WriteSync(pr, 1000, 128, data, false) // first payload of these sectors
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.WriteSync(pr, 1000, 128, data, false)
		}
	})
	e.Run()
}
