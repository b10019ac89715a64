package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/propseed"
	"repro/internal/rtm"
	"repro/internal/ufs"
)

func TestBuildExtentMapContiguous(t *testing.T) {
	// 100 contiguous blocks -> runs capped at 256 KB (32 blocks).
	blocks := make([]uint32, 100)
	for i := range blocks {
		blocks[i] = 1000 + uint32(i)
	}
	m, err := BuildExtentMap(blocks, 100*ufs.BlockSize, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Extents) != 4 { // 32+32+32+4
		t.Fatalf("extents = %d, want 4", len(m.Extents))
	}
	if m.Extents[0].Sectors != 32*ufs.SectorsPerBlock {
		t.Fatalf("first extent = %d sectors", m.Extents[0].Sectors)
	}
	if m.Extents[3].Sectors != 4*ufs.SectorsPerBlock {
		t.Fatalf("last extent = %d sectors", m.Extents[3].Sectors)
	}
	if m.Extents[1].FileOff != 32*ufs.BlockSize {
		t.Fatalf("second extent FileOff = %d", m.Extents[1].FileOff)
	}
	if m.Extents[1].LBA != int64(1032)*ufs.SectorsPerBlock {
		t.Fatalf("second extent LBA = %d", m.Extents[1].LBA)
	}
}

func TestBuildExtentMapFragmented(t *testing.T) {
	// Alternating blocks: every block its own extent.
	blocks := []uint32{10, 12, 14, 16}
	m, err := BuildExtentMap(blocks, 4*ufs.BlockSize, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Extents) != 4 {
		t.Fatalf("extents = %d, want 4", len(m.Extents))
	}
	if m.AverageRunBytes() != ufs.BlockSize {
		t.Fatalf("avg run = %d, want one block", m.AverageRunBytes())
	}
}

func TestBuildExtentMapRejectsHoles(t *testing.T) {
	if _, err := BuildExtentMap([]uint32{5, 0, 7}, 3*ufs.BlockSize, 256<<10); err == nil {
		t.Fatal("hole accepted")
	}
}

func TestBuildExtentMapMinimumCap(t *testing.T) {
	blocks := []uint32{100, 101}
	m, err := BuildExtentMap(blocks, 2*ufs.BlockSize, 1) // absurdly small cap
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Extents) != 2 {
		t.Fatalf("cap below block size should clamp to one block per extent, got %d extents", len(m.Extents))
	}
}

func TestExtentMapEmpty(t *testing.T) {
	m, err := BuildExtentMap(nil, 0, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Extents) != 0 || m.AverageRunBytes() != 0 {
		t.Fatal("empty map should have no extents")
	}
}

// A block map that ends before the file does is rejected at open: the
// fetch walk may read any block up to the end of the file.
func TestExtentMapRejectsShortMap(t *testing.T) {
	if _, err := BuildExtentMap([]uint32{5, 6}, 2*ufs.BlockSize+1, 256<<10); err == nil {
		t.Fatal("a 2-block map for a file of 2 blocks and a byte was accepted")
	}
	if _, err := BuildExtentMap([]uint32{5, 6}, 2*ufs.BlockSize, 256<<10); err != nil {
		t.Fatalf("an exact 2-block map was rejected: %v", err)
	}
}

// randomBlockMap draws a block map and file size for the interning
// property: runs of consecutive blocks, some longer than the read cap and
// some continuing the run before them, with an occasional hole, and a size
// that fits the map, leaves it a block or a byte short, or is zero.
func randomBlockMap(rng *rand.Rand) ([]uint32, int64) {
	var blocks []uint32
	for runs := rng.Intn(6); runs > 0; runs-- {
		start := uint32(1 + rng.Intn(5000))
		if len(blocks) > 0 && rng.Intn(3) == 0 {
			start = blocks[len(blocks)-1] + 1 // split only by the cap
		}
		for i := range 1 + rng.Intn(80) {
			blocks = append(blocks, start+uint32(i))
		}
	}
	if len(blocks) > 0 && rng.Intn(6) == 0 {
		blocks[rng.Intn(len(blocks))] = 0
	}
	size := int64(len(blocks)) * ufs.BlockSize
	switch rng.Intn(6) {
	case 0:
		size += 1 + rng.Int63n(2*ufs.BlockSize) // the map is too short
	case 1:
		size = 0
	default:
		size -= rng.Int63n(ufs.BlockSize)
	}
	return blocks, max(size, 0)
}

// internCase is one comparison of the property: a fresh block map, size
// and read cap against an interned map.
type internCase struct {
	blocks   []uint32
	size     int64
	maxRead  int
	interned *ExtentMap
	kind     string // how the interned map relates to the fresh map
}

// randomInternCase draws a fresh map and an interned map that is either
// built from it or from a variant: one block moved or punched out, the
// size or read cap changed, the map a block shorter or longer, an
// unrelated map, or a hand-made map one extent off or with an empty
// extent list.
func randomInternCase(rng *rand.Rand) internCase {
	caps := []int{1, ufs.BlockSize, 3 * ufs.BlockSize, 100000, 256 << 10}
	c := internCase{maxRead: caps[rng.Intn(len(caps))]}
	c.blocks, c.size = randomBlockMap(rng)
	bl, size, maxRead := slices.Clone(c.blocks), c.size, c.maxRead
	kinds := []string{"same", "block", "size", "cap", "shorter", "longer", "unrelated", "extra", "missing", "empty"}
	c.kind = kinds[rng.Intn(len(kinds))]
	switch c.kind {
	case "block":
		if len(bl) > 0 {
			i := rng.Intn(len(bl))
			bl[i] = []uint32{0, bl[i] + 1, bl[i] - 1, uint32(rng.Intn(5000))}[rng.Intn(4)]
		}
	case "size":
		size = max(0, size+[]int64{-1, 1, -ufs.BlockSize, ufs.BlockSize}[rng.Intn(4)])
	case "cap":
		maxRead = caps[rng.Intn(len(caps))]
	case "shorter":
		if len(bl) > 0 {
			bl = bl[:len(bl)-1]
			size = min(size, int64(len(bl))*ufs.BlockSize)
		}
	case "longer":
		bl = append(bl, uint32(1+rng.Intn(5000)))
	case "unrelated":
		bl, size = randomBlockMap(rng)
	}
	m, err := BuildExtentMap(bl, size, maxRead)
	if err != nil {
		// The variant does not build: intern a map nothing builds to.
		m = &ExtentMap{Size: size, Extents: []Extent{{FileOff: 0, LBA: 8, Sectors: 3}}}
	}
	switch c.kind {
	case "extra":
		m.Extents = append(slices.Clip(m.Extents), Extent{FileOff: 1 << 30, LBA: 8, Sectors: 16})
	case "missing":
		if len(m.Extents) > 0 {
			m.Extents = m.Extents[:len(m.Extents)-1]
		}
	case "empty":
		m.Extents = []Extent{}
	}
	c.interned = m
	return c
}

// TestExtentInternMatchesBuild checks the open path's interning compare:
// ExtentMap.matches accepts a fresh block map, size and read cap exactly
// when BuildExtentMap of them is deeply equal to the interned map, over
// random maps with contiguous runs, runs longer than the cap, runs split
// only by the cap, holes, maps too short for the size and empty maps, and
// interned maps built from the same map or a variant of it. A match
// allocates nothing.
//
// The seed defaults to a fixed value; CI overrides it with
// PROP_SEED and every failure names the seed, so a failing
// run replays with
//
//	PROP_SEED=<seed> go test ./internal/core -run TestExtentInternMatchesBuild
func TestExtentInternMatchesBuild(t *testing.T) {
	seed := propseed.Seed(t, 20261017)
	rng := rand.New(rand.NewSource(seed))
	outcomes := map[string][2]int{} // kind -> [mismatches, matches]
	for run := 0; run < 5000; run++ {
		c := randomInternCase(rng)
		built, _ := BuildExtentMap(c.blocks, c.size, c.maxRead)
		want := reflect.DeepEqual(built, c.interned)
		if got := c.interned.matches(c.blocks, c.size, c.maxRead); got != want {
			t.Fatalf("seed %d run %d (%s): matches = %v, DeepEqual = %v\nblocks %v size %d cap %d\nbuilt %+v\ninterned %+v",
				seed, run, c.kind, got, want, c.blocks, c.size, c.maxRead, built, c.interned)
		}
		o := outcomes[c.kind]
		if want {
			o[1]++
			if allocs := testing.AllocsPerRun(1, func() { c.interned.matches(c.blocks, c.size, c.maxRead) }); allocs != 0 {
				t.Fatalf("seed %d run %d: a matching compare allocated %v times", seed, run, allocs)
			}
		} else {
			o[0]++
		}
		outcomes[c.kind] = o
	}
	t.Logf("[mismatches matches] by variant: %v", outcomes)
	if o := outcomes["same"]; o[0] == 0 || o[1] == 0 {
		t.Errorf("identical inputs never both built and failed to build: %v", o)
	}
	for _, k := range []string{"block", "size", "cap", "shorter", "longer", "extra", "missing", "empty"} {
		if outcomes[k][0] == 0 {
			t.Errorf("variant %q never differed: %v", k, outcomes[k])
		}
	}
	if outcomes["cap"][1] == 0 {
		t.Errorf("a changed cap never left the map equal: %v", outcomes["cap"])
	}
}

// TestOpenInternsExtentMaps drives the open path through the Unix server:
// two playback opens of an unchanged title share one map; after the title
// is rewritten the way an editor writes (interleaved with another file,
// so its layout changes), the next open gets a new map equal to a fresh
// build and later opens share that one, while the earlier sessions keep
// the map they opened with; a recording builds its own map and never
// interns it.
func TestOpenInternsExtentMaps(t *testing.T) {
	movie := media.MPEG1().Generate("/m", 4*time.Second)
	plan := media.MPEG1().Generate("/rec", 2*time.Second)
	ran := false
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m": movie},
		func(b *bed, th *rtm.Thread) {
			c := ufs.NewClient(b.unix, th)
			// fresh builds path's map from a block map of its own.
			fresh := func(path string) *ExtentMap {
				fd, err := c.Open(path)
				if err != nil {
					t.Errorf("open %s: %v", path, err)
					return nil
				}
				defer c.Close(fd)
				blocks, size, err := c.BlockMap(fd)
				if err != nil {
					t.Errorf("BlockMap %s: %v", path, err)
					return nil
				}
				m, err := BuildExtentMap(blocks, size, b.cras.Config().MaxRead)
				if err != nil {
					t.Errorf("BuildExtentMap %s: %v", path, err)
				}
				return m
			}
			var hs []*Handle
			for range 2 {
				h, err := b.cras.Open(th, movie, "/m", OpenOptions{})
				if err != nil {
					t.Errorf("Open: %v", err)
					return
				}
				hs = append(hs, h)
			}
			old := hs[0].ExtentMap()
			if hs[1].ExtentMap() != old {
				t.Errorf("two opens of an unchanged title got different maps")
			}
			if !reflect.DeepEqual(old, fresh("/m")) {
				t.Errorf("the shared map differs from a fresh build")
			}
			oldCopy := &ExtentMap{Size: old.Size, Extents: slices.Clone(old.Extents)}

			// Rewrite /m a block at a time, alternating with a scratch
			// file, so the new layout is scattered.
			if err := c.Unlink("/m"); err != nil {
				t.Errorf("unlink: %v", err)
				return
			}
			fd, err := c.Create("/m")
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			scratch, err := c.Create("/scratch")
			if err != nil {
				t.Errorf("create scratch: %v", err)
				return
			}
			piece := make([]byte, ufs.BlockSize)
			for off := int64(0); off < movie.TotalSize(); off += ufs.BlockSize {
				if _, err := c.Write(fd, off, piece); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if _, err := c.Write(scratch, off, piece); err != nil {
					t.Errorf("write scratch: %v", err)
					return
				}
			}
			c.Close(fd)
			c.Close(scratch)

			for range 2 {
				h, err := b.cras.Open(th, movie, "/m", OpenOptions{})
				if err != nil {
					t.Errorf("Open after the rewrite: %v", err)
					return
				}
				hs = append(hs, h)
			}
			edited := hs[2].ExtentMap()
			switch {
			case edited == old:
				t.Errorf("the open after a rewrite kept the old map")
			case !reflect.DeepEqual(edited, fresh("/m")):
				t.Errorf("the map after a rewrite differs from a fresh build")
			case reflect.DeepEqual(edited, oldCopy):
				t.Errorf("the rewrite left the layout as it was; the test needs it scattered")
			case hs[3].ExtentMap() != edited:
				t.Errorf("the second open after the rewrite did not share the first one's map")
			}
			if hs[0].ExtentMap() != old || hs[1].ExtentMap() != old || !reflect.DeepEqual(old, oldCopy) {
				t.Errorf("sessions opened before the rewrite lost or saw a change to their map")
			}

			// Recordings build their own maps and intern nothing.
			rec, err := b.cras.OpenRecord(th, plan, "/rec", OpenOptions{})
			if err != nil {
				t.Errorf("OpenRecord: %v", err)
				return
			}
			if _, ok := b.cras.extents["/rec"]; ok {
				t.Errorf("a recording open interned its map")
			}
			if !reflect.DeepEqual(rec.ExtentMap(), fresh("/rec")) {
				t.Errorf("the recording's map differs from a fresh build")
			}
			if err := rec.Close(th); err != nil {
				t.Errorf("close recording: %v", err)
				return
			}
			h, err := b.cras.Open(th, plan, "/rec", OpenOptions{})
			if err != nil {
				t.Errorf("Open of the recording: %v", err)
				return
			}
			if h.ExtentMap() == rec.ExtentMap() || b.cras.extents["/rec"] != h.ExtentMap() {
				t.Errorf("the first playback of a recorded title did not intern a map of its own")
			}
			ran = true
		})
	if !ran && !t.Failed() {
		t.Error("the scenario did not run to its end")
	}
}
