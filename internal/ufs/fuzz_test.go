package ufs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Native fuzz targets for the bytes a mount trusts: the file-system
// metadata of an image (superblock, group headers and bitmaps, inodes,
// directory entries, indirect blocks) and the image file that carries
// them. Plain `go test` replays the seed corpora in testdata/fuzz/, which
// are built from a formatted image (TestFuzzCorporaFromImage keeps them in
// step). An open-ended search is a manual step, one target at a time; the
// small minimize budget keeps the fuzzer from spending a minute shrinking
// each new 10 KB input:
//
//	go test ./internal/ufs -run '^$' -fuzz FuzzMount -fuzztime 5m -fuzzminimizetime 200x -parallel 1
//
// A failing input lands in testdata/fuzz/<target>/ and replays from then
// on; the panic it found becomes a typed error and a named regression test.

// fuzzGeometry is the image the targets start from: 160 blocks in three
// groups of 64 (the last one short), with one inode block per group.
func fuzzGeometry() (disk.Geometry, disk.Params, Options) {
	g, p := disk.ST32550N()
	g.Cylinders, g.Heads, g.SectorsPerTrack = 20, 2, 64
	return g, p, Options{BlocksPerGroup: 64, InodeBlocksPerG: 1}
}

// fuzzImage formats the fuzz geometry and lays out a small tree — a
// subdirectory holding a written file, a file preallocated past its
// direct blocks (so it has an indirect block) and an empty file — and
// returns the disk's saved image.
func fuzzImage(t testing.TB) []byte {
	g, p, opts := fuzzGeometry()
	e := sim.NewEngine(1)
	d := disk.New(e, "fz", g, p)
	if _, err := Format(d, opts); err != nil {
		t.Fatal(err)
	}
	var err error
	e.Spawn("layout", func(pr *sim.Proc) {
		err = func() error {
			fs, err := Mount(pr, d, opts)
			if err != nil {
				return err
			}
			if err := fs.Mkdir(pr, "/d"); err != nil {
				return err
			}
			f, err := fs.Create(pr, "/d/a")
			if err != nil {
				return err
			}
			if _, err := f.WriteAt(pr, []byte("a file's first bytes"), 0); err != nil {
				return err
			}
			if f, err = fs.Create(pr, "/b"); err != nil {
				return err
			}
			if err := f.Preallocate(pr, (NDirect+3)*BlockSize); err != nil {
				return err
			}
			if _, err := fs.Create(pr, "/c"); err != nil {
				return err
			}
			fs.Sync(pr)
			return nil
		}()
	})
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := d.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

// imageSectors splits a saved image of 512-byte sectors into the LBAs it
// stores and their bytes, concatenated in LBA order.
func imageSectors(img []byte) (lbas []int64, data []byte) {
	const hdr, rec = 76, 8 + 512
	for off := hdr; off+rec <= len(img); off += rec {
		lbas = append(lbas, int64(binary.LittleEndian.Uint64(img[off:])))
		data = append(data, img[off+8:off+rec]...)
	}
	return lbas, data
}

// mountAndCheck mounts d and, if it mounts, runs Check, maps and grows
// by preallocation every file of the directories it can list and then
// unlinks everything listed. The image may be anything: errors are fine,
// a panic is the bug the fuzz targets look for.
func mountAndCheck(e *sim.Engine, d *disk.Disk) {
	e.Spawn("check", func(p *sim.Proc) {
		fs, err := Mount(p, d, Options{})
		if err != nil {
			return
		}
		fs.Check(p)
		for _, dir := range []string{"/", "/d"} {
			ents, err := fs.ReadDir(p, dir)
			if err != nil {
				continue
			}
			for _, ent := range ents {
				if _, err := fs.Stat(p, dir+"/"+ent.Name); err != nil {
					continue
				}
				if f, err := fs.Open(p, dir+"/"+ent.Name); err == nil {
					_, _ = f.BlockMap(p, nil) // any outcome but a panic is fine
					// The write side: three more blocks, placed through
					// bitmaps and free counts nobody checked.
					_ = f.Preallocate(p, f.Size(p)+3*BlockSize)
				}
			}
		}
		// Then unlink every listed entry, the subdirectory's first so that
		// it is empty when its own goes.
		for _, dir := range []string{"/d", "/"} {
			ents, err := fs.ReadDir(p, dir)
			if err != nil {
				continue
			}
			for _, ent := range ents {
				_ = fs.Unlink(p, dir+"/"+ent.Name) // refused or done, never a panic
			}
		}
	})
	e.Run()
}

// overlayDisk builds the fuzz geometry's disk holding the image's sectors
// with data copied over their bytes, in LBA order.
func overlayDisk(e *sim.Engine, lbas []int64, base, data []byte) *disk.Disk {
	g, p, _ := fuzzGeometry()
	d := disk.New(e, "fz", g, p)
	img := bytes.Clone(base)
	copy(img, data)
	for i, lba := range lbas {
		d.PokeSector(lba, img[i*512:(i+1)*512])
	}
	return d
}

// FuzzMount: a formatted image whose written sectors are overwritten, in
// LBA order, by the input mounts or fails with an error; Check, the
// directory walk, the preallocations and the unlinks on what mounts never
// panic.
func FuzzMount(f *testing.F) {
	lbas, base := imageSectors(fuzzImage(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := sim.NewEngine(1)
		mountAndCheck(e, overlayDisk(e, lbas, base, data))
	})
}

// maxFuzzSectors bounds the devices FuzzLoadImage mounts: Check walks
// every block of the file system, so a header naming a terabyte disk
// would make one input take minutes without reaching new code.
const maxFuzzSectors = 1 << 20

// FuzzLoadImage: any bytes load as a disk image or fail with an error,
// and an image that loads mounts, checks and walks without a panic.
func FuzzLoadImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e := sim.NewEngine(1)
		d, err := disk.LoadImage(e, "fz", bytes.NewReader(data))
		if err != nil || d.Geometry().TotalSectors() > maxFuzzSectors {
			return
		}
		mountAndCheck(e, d)
	})
}

// fuzzSeeds returns each target's seed inputs, by file name: the
// formatted image as it is, and versions of it a mount must refuse or
// check without trusting.
func fuzzSeeds(t testing.TB) map[string]map[string][]byte {
	img := fuzzImage(t)
	_, sectors := imageSectors(img)
	badMagic := bytes.Clone(sectors)
	badMagic[0] ^= 0xff
	return map[string]map[string][]byte{
		"FuzzMount": {
			"formatted": sectors,
			"bad-magic": badMagic,
			"empty":     nil,
		},
		"FuzzLoadImage": {
			"formatted": img,
			"truncated": img[:len(img)-100],
			"header":    img[:76],
		},
	}
}

// TestFuzzCorporaFromImage checks that testdata/fuzz holds exactly the
// seeds built from today's formatted image. UPDATE_FUZZ_CORPUS=1 rewrites
// them.
func TestFuzzCorporaFromImage(t *testing.T) {
	update := os.Getenv("UPDATE_FUZZ_CORPUS") == "1"
	for target, seeds := range fuzzSeeds(t) {
		dir := filepath.Join("testdata", "fuzz", target)
		for name, data := range seeds {
			path := filepath.Join(dir, "seed-"+name)
			want := fmt.Appendf(nil, "go test fuzz v1\n[]byte(%q)\n", data)
			if update {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, want, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s is missing or stale (%v); regenerate with UPDATE_FUZZ_CORPUS=1 go test ./internal/ufs -run TestFuzzCorporaFromImage", path, err)
			}
		}
	}
}
