package disk

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/propseed"
	"repro/internal/sim"
)

// refImage serializes a reference per-sector store the way SaveImage lays
// out an image: the header (geometry and timing, copied from got, with the
// reference's sector count) and then the records in ascending LBA.
func refImage(got []byte, ref map[int64][]byte) []byte {
	out := append([]byte(nil), got[:imageHeaderSize-8]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(ref)))
	lbas := make([]int64, 0, len(ref))
	for lba := range ref {
		lbas = append(lbas, lba)
	}
	slices.Sort(lbas)
	for _, lba := range lbas {
		out = binary.LittleEndian.AppendUint64(out, uint64(lba))
		out = append(out, ref[lba]...)
	}
	return out
}

// TestSectorStoreProperty drives the slab sector store with seeded random
// writes — payloads, all-zero payloads, sparse (nil) writes, ranges that
// start and end mid-slab, and PokeSector — against a reference map with one
// entry per written sector. After every step copySectors, xorSectors,
// PeekSectors, FillSectors (blank exactly when no sector of the range holds
// a payload, and then the buffer untouched), StoredSectors, the SaveImage bytes and a LoadImage round
// trip must agree with the reference. Fixed default seed; CI rotates it
// per commit via PROP_SEED.
func TestSectorStoreProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(propseed.Seed(t, 20261017)))
	_, p := ST32550N()
	g := Geometry{Cylinders: 3, Heads: 2, SectorsPerTrack: 27, SectorSize: 512}
	d := New(sim.NewEngine(1), "sd0", g, p)
	total := g.TotalSectors()
	ss := g.SectorSize
	ref := make(map[int64][]byte)

	// sector makes one sector's payload: mostly random bytes, sometimes all
	// zeros, sometimes zeros but for one byte.
	sector := func() []byte {
		b := make([]byte, ss)
		switch rng.Intn(4) {
		case 0:
		case 1:
			b[rng.Intn(ss)] = byte(1 + rng.Intn(255))
		default:
			rng.Read(b)
		}
		return b
	}
	put := func(lba int64, b []byte) {
		if b == nil || allZero(b) {
			delete(ref, lba)
			return
		}
		ref[lba] = append([]byte(nil), b...)
	}
	want := func(lba int64, count int) []byte {
		out := make([]byte, count*ss)
		for i := 0; i < count; i++ {
			copy(out[i*ss:], ref[lba+int64(i)])
		}
		return out
	}

	for step := 0; step < 400; step++ {
		count := 1 + rng.Intn(3*slabSectors)
		lba := rng.Int63n(total - int64(count) + 1)
		switch op := rng.Intn(4); op {
		case 0, 1: // payload write
			data := make([]byte, 0, count*ss)
			for i := 0; i < count; i++ {
				data = append(data, sector()...)
			}
			d.storeSectors(lba, count, data)
			for i := 0; i < count; i++ {
				put(lba+int64(i), data[i*ss:(i+1)*ss])
			}
		case 2: // sparse write
			d.storeSectors(lba, count, nil)
			for i := 0; i < count; i++ {
				put(lba+int64(i), nil)
			}
		case 3: // offline poke
			b := sector()
			d.PokeSector(lba, b)
			put(lba, b)
		}

		count = 1 + rng.Intn(3*slabSectors)
		lba = rng.Int63n(total - int64(count) + 1)
		got := make([]byte, count*ss)
		rng.Read(got) // stale bytes the copy must overwrite
		d.copySectors(lba, count, got)
		if !bytes.Equal(got, want(lba, count)) {
			t.Fatalf("step %d: copySectors(%d, %d) differs from the reference", step, lba, count)
		}
		rng.Read(got)
		d.PeekSectors(lba, got)
		if !bytes.Equal(got, want(lba, count)) {
			t.Fatalf("step %d: PeekSectors(%d, %d) differs from the reference", step, lba, count)
		}
		wantBlank := true
		for i := 0; i < count; i++ {
			if ref[lba+int64(i)] != nil {
				wantBlank = false
			}
		}
		if blank := d.FillSectors(lba, count, nil); blank != wantBlank {
			t.Fatalf("step %d: FillSectors(%d, %d, nil) = %v, want %v", step, lba, count, blank, wantBlank)
		}
		rng.Read(got)
		stale := bytes.Clone(got)
		blank := d.FillSectors(lba, count, got)
		switch {
		case blank != wantBlank:
			t.Fatalf("step %d: FillSectors(%d, %d) = %v, want %v", step, lba, count, blank, wantBlank)
		case blank && !bytes.Equal(got, stale):
			t.Fatalf("step %d: FillSectors(%d, %d) reported blank but wrote the buffer", step, lba, count)
		case !blank && !bytes.Equal(got, want(lba, count)):
			t.Fatalf("step %d: FillSectors(%d, %d) differs from the reference", step, lba, count)
		}
		base := make([]byte, count*ss)
		rng.Read(base)
		acc := append([]byte(nil), base...)
		d.xorSectors(lba, count, acc)
		xorInto(base, want(lba, count))
		if !bytes.Equal(acc, base) {
			t.Fatalf("step %d: xorSectors(%d, %d) differs from the reference", step, lba, count)
		}
		if n := d.StoredSectors(); n != len(ref) {
			t.Fatalf("step %d: StoredSectors = %d, reference %d", step, n, len(ref))
		}
		for key, s := range d.sectors {
			if s.empty() {
				t.Fatalf("step %d: empty slab %d left in the store", step, key)
			}
		}
		if step%20 != 0 {
			continue
		}
		var img bytes.Buffer
		if err := d.SaveImage(&img); err != nil {
			t.Fatalf("step %d: SaveImage: %v", step, err)
		}
		if !bytes.Equal(img.Bytes(), refImage(img.Bytes(), ref)) {
			t.Fatalf("step %d: SaveImage bytes differ from the reference serialization", step)
		}
		d2, err := LoadImage(sim.NewEngine(2), "sd1", bytes.NewReader(img.Bytes()))
		if err != nil {
			t.Fatalf("step %d: LoadImage: %v", step, err)
		}
		all := make([]byte, int(total)*ss)
		d2.PeekSectors(0, all)
		if d2.StoredSectors() != len(ref) || !bytes.Equal(all, want(0, int(total))) {
			t.Fatalf("step %d: LoadImage round trip differs from the reference", step)
		}
	}
}

// TestLoadImageRejectsOutOfRangeSector checks that a record naming a
// sector past the disk's end is an error, not a store entry.
func TestLoadImageRejectsOutOfRangeSector(t *testing.T) {
	_, d := testDisk(1)
	d.PokeSector(3, bytes.Repeat([]byte{0x5A}, 512))
	var img bytes.Buffer
	if err := d.SaveImage(&img); err != nil {
		t.Fatalf("SaveImage: %v", err)
	}
	b := img.Bytes()
	binary.LittleEndian.PutUint64(b[imageHeaderSize:], uint64(d.Geometry().TotalSectors()))
	if _, err := LoadImage(sim.NewEngine(2), "sd1", bytes.NewReader(b)); err == nil {
		t.Fatal("LoadImage accepted a sector past the end of the disk")
	}
}

// degradedParityVolume builds a 4-member parity volume with a 4-sector
// stripe unit, kills the member holding logical sector 4 and writes the
// given bytes there with a timed write. The write skips the dead member, so
// that member's stored sector is stale from then on.
func degradedParityVolume(t *testing.T, written []byte) *Volume {
	t.Helper()
	e := sim.NewEngine(1)
	g, p := ST32550N()
	g.Cylinders = 4
	members := make([]*Disk, 4)
	for i := range members {
		members[i] = New(e, "sd"+strconv.Itoa(i), g, p)
	}
	v, err := NewParityVolume("pvol0", members, 4)
	if err != nil {
		t.Fatalf("NewParityVolume: %v", err)
	}
	old := bytes.Repeat([]byte{0x11}, 512)
	v.PokeSector(4, old)
	m, _ := v.Locate(4)
	v.SetDead(m, true)
	e.Spawn("w", func(p *sim.Proc) { v.WriteSync(p, 4, 1, written, false) })
	e.RunUntil(sim.Time(time.Minute))
	return v
}

// readSector reads one logical sector with a timed read.
func readSector(v *Volume, lba int64) []byte {
	e := v.Disk(0).eng
	var got []byte
	e.Spawn("r", func(p *sim.Proc) { got = v.ReadSync(p, lba, 1, false) })
	e.RunUntil(e.Now() + sim.Time(time.Minute))
	return got
}

// TestDegradedPeekSectorReconstructs checks that an offline peek of a dead
// member's sector returns what a timed read returns — the bytes rebuilt
// from the survivors — not the dead member's stale stored sector.
func TestDegradedPeekSectorReconstructs(t *testing.T) {
	written := bytes.Repeat([]byte{0x22}, 512)
	v := degradedParityVolume(t, written)
	if got := readSector(v, 4); !bytes.Equal(got, written) {
		t.Fatalf("ReadSync after the degraded write = %x..., want %x...", got[:4], written[:4])
	}
	if got := v.PeekSector(4); !bytes.Equal(got, written) {
		t.Fatalf("PeekSector after the degraded write = %x..., want %x...", got[:4], written[:4])
	}
	got := make([]byte, 3*512)
	v.PeekSectors(3, got)
	if !bytes.Equal(got[512:1024], written) {
		t.Fatal("PeekSectors across the dead unit misses the degraded write")
	}
}

// TestDegradedPokeSectorReconstructs checks that an offline poke of a dead
// member's sector updates the row parity from the sector's current
// (reconstructed) bytes, so the row then reconstructs to the poked bytes
// and stays consistent.
func TestDegradedPokeSectorReconstructs(t *testing.T) {
	v := degradedParityVolume(t, bytes.Repeat([]byte{0x22}, 512))
	poked := bytes.Repeat([]byte{0x33}, 512)
	v.PokeSector(4, poked)
	if got := readSector(v, 4); !bytes.Equal(got, poked) {
		t.Fatalf("ReadSync after the degraded poke = %x..., want %x...", got[:4], poked[:4])
	}
	if row := v.VerifyParity(); row != -1 {
		t.Fatalf("parity broken at row %d after the degraded poke", row)
	}
}

// TestMappingAllocs checks that the stripe mapping and the offline
// multi-sector peek allocate nothing when the caller supplies the scratch,
// on one-disk, RAID-0 and parity volumes, healthy and degraded.
func TestMappingAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	g, p := ST32550N()
	g.Cylinders = 8
	mk := func(n int) []*Disk {
		ds := make([]*Disk, n)
		for i := range ds {
			ds[i] = New(e, "sd"+strconv.Itoa(i), g, p)
		}
		return ds
	}
	raid, err := NewVolume("raid", mk(4), 16)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewParityVolume("par", mk(4), 16)
	if err != nil {
		t.Fatal(err)
	}
	dpar, err := NewParityVolume("dpar", mk(4), 16)
	if err != nil {
		t.Fatal(err)
	}
	dpar.SetDead(2, true)
	scratch := make([]Frag, 0, 64)
	buf := make([]byte, 200*512)
	for _, v := range []*Volume{SingleVolume(New(e, "one", g, p)), raid, par, dpar} {
		for lba := int64(30); lba < 250; lba += 7 {
			v.PokeSector(lba, bytes.Repeat([]byte{byte(lba)}, 512))
		}
		// The mapping appends after what dst already holds and leaves it be.
		held := Frag{Disk: 9, LBA: 1, Count: 1}
		got := v.Fragments([]Frag{held}, 37, 200)
		if want := v.Fragments(nil, 37, 200); got[0] != held || !slices.Equal(got[1:], want) {
			t.Errorf("%s: Fragments onto a non-empty dst = %v, want %v after %v", v.Name(), got, want, held)
		}
		if n := testing.AllocsPerRun(100, func() { scratch = v.Fragments(scratch[:0], 37, 200) }); n != 0 {
			t.Errorf("%s: Fragments allocates %v times per call", v.Name(), n)
		}
		if n := testing.AllocsPerRun(100, func() { scratch, _ = v.ReadFragments(scratch[:0], 37, 200) }); n != 0 {
			t.Errorf("%s: ReadFragments allocates %v times per call", v.Name(), n)
		}
		if n := testing.AllocsPerRun(100, func() { v.PeekSectors(37, buf) }); n != 0 {
			t.Errorf("%s: PeekSectors allocates %v times per call", v.Name(), n)
		}
		if n := testing.AllocsPerRun(100, func() { v.FillSectors(37, 200, buf) }); n != 0 {
			t.Errorf("%s: FillSectors allocates %v times per call", v.Name(), n)
		}
	}
}

// TestPokeSectorsMatchesPerSector pokes random multi-sector ranges, some
// sectors all zero, through PokeSectors on one device and sector by sector
// through PokeSector on a twin: a disk, a RAID-0 volume, and a parity
// volume healthy and with a dead member. Every member's store must end
// byte-identical, with the same stored-sector count, and parity must hold.
func TestPokeSectorsMatchesPerSector(t *testing.T) {
	type device interface {
		PokeSector(lba int64, data []byte)
		PokeSectors(lba int64, data []byte)
	}
	for _, tc := range []struct {
		name   string
		disks  int // 0: a bare disk
		parity bool
		dead   int
	}{
		{"disk", 0, false, -1},
		{"raid0", 4, false, -1},
		{"parity", 4, true, -1},
		{"parity-degraded", 4, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (device, []*Disk, *Volume) {
				e := sim.NewEngine(1)
				if tc.disks == 0 {
					d := New(e, "sd0", Geometry{Cylinders: 20, Heads: 2, SectorsPerTrack: 16, SectorSize: 512}, Params{})
					return d, []*Disk{d}, nil
				}
				v := payloadVolume(t, e, tc.disks, tc.parity)
				if tc.dead >= 0 {
					v.SetDead(tc.dead, true)
				}
				members := make([]*Disk, v.NumDisks())
				for i := range members {
					members[i] = v.Disk(i)
				}
				return v, members, v
			}
			bulk, bulkMembers, bulkVol := build()
			each, eachMembers, _ := build()
			rng := rand.New(rand.NewSource(7))
			total := bulkMembers[0].Geometry().TotalSectors()
			if bulkVol != nil {
				total = bulkVol.Geometry().TotalSectors()
			}
			for trial := 0; trial < 300; trial++ {
				n := 1 + rng.Intn(20)
				lba := rng.Int63n(total - int64(n))
				data := make([]byte, n*512)
				for s := 0; s < n; s++ {
					if rng.Intn(4) != 0 {
						rng.Read(data[s*512 : (s+1)*512])
					}
				}
				bulk.PokeSectors(lba, data)
				for s := 0; s < n; s++ {
					each.PokeSector(lba+int64(s), data[s*512:(s+1)*512])
				}
			}
			for i := range bulkMembers {
				a, b := bulkMembers[i], eachMembers[i]
				all := func(d *Disk) []byte {
					out := make([]byte, d.Geometry().TotalSectors()*512)
					d.PeekSectors(0, out)
					return out
				}
				if !bytes.Equal(all(a), all(b)) || a.StoredSectors() != b.StoredSectors() {
					t.Fatalf("member %d: PokeSectors left other bytes than per-sector PokeSector", i)
				}
			}
			if bulkVol != nil {
				if row := bulkVol.VerifyParity(); row != -1 {
					t.Fatalf("parity broken at row %d", row)
				}
			}
		})
	}
}

// TestVolumeFillSectorsReportsBlank fills random logical ranges of sparse
// volumes: a bare disk's, RAID-0, parity, and parity with a dead member.
// FillSectors must report blank exactly when no unit of the range is on a
// dead member and no live unit's sector holds a payload; a blank fill
// leaves the buffer as it was, and any other fill (a nil-buffer probe
// aside) gives PeekSectors' bytes. So a degraded read of a dead unit is
// rebuilt even where every survivor is blank.
func TestVolumeFillSectorsReportsBlank(t *testing.T) {
	for _, tc := range []struct {
		name   string
		disks  int // 0: a one-disk volume
		parity bool
		dead   int
	}{
		{"disk", 0, false, -1},
		{"raid0", 4, false, -1},
		{"parity", 4, true, -1},
		{"parity-degraded", 4, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			var v *Volume
			if tc.disks == 0 {
				v = SingleVolume(New(e, "sd0", Geometry{Cylinders: 20, Heads: 2, SectorsPerTrack: 16, SectorSize: 512}, Params{}))
			} else {
				v = payloadVolume(t, e, tc.disks, tc.parity)
			}
			rng := rand.New(rand.NewSource(11))
			total := v.Geometry().TotalSectors()
			for i := 0; i < 40; i++ {
				v.PokeSector(rng.Int63n(total), bytes.Repeat([]byte{byte(1 + rng.Intn(255))}, 512))
			}
			if tc.dead >= 0 {
				v.SetDead(tc.dead, true)
			}
			sawBlank, sawData := false, false
			for trial := 0; trial < 500; trial++ {
				n := 1 + rng.Intn(24)
				lba := rng.Int63n(total - int64(n) + 1)
				wantBlank := true
				for s := lba; s < lba+int64(n); s++ {
					m, dlba := v.Locate(s)
					key, off, _ := slabSpan(dlba, 1)
					if v.Dead(m) || v.Disk(m).sectors[key] != nil && v.Disk(m).sectors[key][off] != nil {
						wantBlank = false
					}
				}
				if blank := v.FillSectors(lba, n, nil); blank != wantBlank {
					t.Fatalf("FillSectors(%d, %d, nil) = %v, want %v", lba, n, blank, wantBlank)
				}
				got := make([]byte, n*512)
				rng.Read(got)
				stale := bytes.Clone(got)
				want := make([]byte, n*512)
				v.PeekSectors(lba, want)
				blank := v.FillSectors(lba, n, got)
				switch {
				case blank != wantBlank:
					t.Fatalf("FillSectors(%d, %d) = %v, want %v", lba, n, blank, wantBlank)
				case blank && !bytes.Equal(got, stale):
					t.Fatalf("FillSectors(%d, %d) reported blank but wrote the buffer", lba, n)
				case !blank && !bytes.Equal(got, want):
					t.Fatalf("FillSectors(%d, %d) differs from PeekSectors", lba, n)
				}
				sawBlank = sawBlank || blank
				sawData = sawData || !blank
			}
			if !sawBlank && tc.dead < 0 || !sawData {
				t.Errorf("saw blank %v, data %v: the ranges miss a case", sawBlank, sawData)
			}
		})
	}
}
