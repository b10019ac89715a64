package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// buildParityImages formats a small 4-member parity volume, stores one
// movie, optionally corrupts one sector of one member BEHIND the volume's
// back (bypassing the parity-maintaining PokeSector), and saves one image
// per member into dir. Returns the image paths.
func buildParityImages(t *testing.T, dir string, corruptRow int64) []string {
	t.Helper()
	const stripe = 64
	e := sim.NewEngine(3)
	g, p := disk.ST32550N()
	g.Cylinders, g.Heads = 64, 2
	members := make([]*disk.Disk, 4)
	for i := range members {
		members[i] = disk.New(e, "sd"+string(rune('0'+i)), g, p)
	}
	vol, err := disk.NewParityVolume("vol0", members, stripe)
	if err != nil {
		t.Fatalf("NewParityVolume: %v", err)
	}
	if _, err := ufs.Format(vol, ufs.Options{}); err != nil {
		t.Fatalf("Format: %v", err)
	}
	movie := media.MPEG1().Generate("/m", 2*time.Second)
	e.Spawn("setup", func(pr *sim.Proc) {
		fs, err := ufs.Mount(pr, vol, ufs.Options{})
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		if err := media.Store(pr, fs, "/m", movie); err != nil {
			t.Errorf("Store: %v", err)
			return
		}
		fs.Sync(pr)
	})
	e.Run()

	if corruptRow >= 0 {
		// Flip a byte in one sector of member 1, directly on the member disk:
		// the row no longer XORs to zero, exactly what a latent media error
		// under the parity rotation looks like.
		lba := corruptRow*stripe + 3
		sec := members[1].PeekSector(lba)
		sec[7] ^= 0x5a
		members[1].PokeSector(lba, sec)
	}

	paths := make([]string, len(members))
	for i, d := range members {
		paths[i] = filepath.Join(dir, "cm.img."+string(rune('0'+i)))
		f, err := os.Create(paths[i])
		if err != nil {
			t.Fatalf("create %s: %v", paths[i], err)
		}
		if err := d.SaveImage(f); err != nil {
			t.Fatalf("save %s: %v", paths[i], err)
		}
		f.Close()
	}
	return paths
}

// TestParityCheckClean pins the happy path: a freshly formatted parity
// volume round-trips through member images and passes both the parity pass
// and the file-system walk.
func TestParityCheckClean(t *testing.T) {
	paths := buildParityImages(t, t.TempDir(), -1)
	var out strings.Builder
	code, err := checkParity(&out, paths, 64)
	if err != nil {
		t.Fatalf("checkParity: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit code %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "every row XORs to zero") {
		t.Errorf("missing parity verdict in output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Errorf("missing fsck verdict in output:\n%s", out.String())
	}
}

// TestParityCheckCorruption pins the detection path: one flipped byte on
// one member fails the check with the exact row named, before any
// file-system walk can claim the volume is clean.
func TestParityCheckCorruption(t *testing.T) {
	const badRow = 5
	paths := buildParityImages(t, t.TempDir(), badRow)
	var out strings.Builder
	code, err := checkParity(&out, paths, 64)
	if err != nil {
		t.Fatalf("checkParity: %v", err)
	}
	if code != 1 {
		t.Fatalf("exit code %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "stripe row 5 does not XOR to zero") {
		t.Errorf("first inconsistent row not reported:\n%s", out.String())
	}
	if strings.Contains(out.String(), "clean") {
		t.Errorf("corrupted volume reported clean:\n%s", out.String())
	}
}

// TestParityCheckArgErrors pins the argument contract: fewer than three
// member images is a hard error, not a degenerate pass.
func TestParityCheckArgErrors(t *testing.T) {
	var out strings.Builder
	if _, err := checkParity(&out, []string{"a", "b"}, 64); err == nil {
		t.Errorf("two-member parity check did not error")
	}
	if _, err := checkParity(&out, []string{"/nonexistent-a", "/nonexistent-b", "/nonexistent-c"}, 64); err == nil {
		t.Errorf("missing image files did not error")
	}
}

// TestSingleCheckReportsHostileGeometry saves a single-disk image whose
// superblock claims zero inodes per group and requires cmfsck to fail with
// the mount's geometry error, which main prints, instead of dividing by
// zero in the walk.
func TestSingleCheckReportsHostileGeometry(t *testing.T) {
	e := sim.NewEngine(1)
	g, p := disk.ST32550N()
	g.Cylinders, g.Heads = 100, 4
	d := disk.New(e, "sd0", g, p)
	if _, err := ufs.Format(d, ufs.Options{}); err != nil {
		t.Fatalf("Format: %v", err)
	}
	sec := d.PeekSector(0)
	copy(sec[24:28], []byte{0, 0, 0, 0}) // Super.InodesPerGroup
	d.PokeSector(0, sec)
	path := filepath.Join(t.TempDir(), "cm.img")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveImage(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out strings.Builder
	_, err = checkSingle(&out, path)
	if !errors.Is(err, ufs.ErrBadGeometry) || !strings.Contains(err.Error(), "InodesPerGroup = 0") {
		t.Fatalf("checkSingle = %v, want the InodesPerGroup geometry error", err)
	}
}
