package media

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// goldenImageHash formats a small volume, lays out a fixed set of movies
// and returns the SHA-256 of every member's SaveImage bytes, in member
// order. members == 1 formats a bare disk; more build a rotating-parity
// volume with a 64-sector stripe unit.
func goldenImageHash(t *testing.T, members int) string {
	t.Helper()
	eng := sim.NewEngine(5)
	g, p := disk.ST32550N()
	g.Cylinders = 400
	disks := make([]*disk.Disk, members)
	for i := range disks {
		disks[i] = disk.New(eng, "sd"+string(rune('0'+i)), g, p)
	}
	var dev ufs.BlockDevice = disks[0]
	if members > 1 {
		v, err := disk.NewParityVolume("vol0", disks, 64)
		if err != nil {
			t.Fatalf("NewParityVolume: %v", err)
		}
		dev = v
	}
	if _, err := ufs.Format(dev, ufs.Options{}); err != nil {
		t.Fatalf("Format: %v", err)
	}
	eng.Spawn("layout", func(pr *sim.Proc) {
		fs, err := ufs.Mount(pr, dev, ufs.Options{})
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		movies := []*StreamInfo{
			MPEG1().Generate("/m00", 6*time.Second),
			MPEG2().Generate("/m01", 3*time.Second),
			VBRProfile{FrameRate: 30, MeanRate: 187500, Jitter: 0.25}.Generate("/m02", 4*time.Second, eng.RNG("/m02")),
		}
		for _, m := range movies {
			if err := Store(pr, fs, m.Name, m); err != nil {
				t.Errorf("Store %s: %v", m.Name, err)
				return
			}
		}
		// A short ordinary file whose payload leaves partly written slabs.
		f, err := fs.Create(pr, "/notes")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		note := make([]byte, 3000)
		for i := range note {
			note[i] = byte(i*7 + 1)
		}
		if _, err := f.WriteAt(pr, note, 700); err != nil {
			t.Errorf("WriteAt: %v", err)
			return
		}
		fs.Sync(pr)
	})
	eng.Run()
	h := sha256.New()
	for _, d := range disks {
		if err := d.SaveImage(h); err != nil {
			t.Fatalf("SaveImage: %v", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestImageGolden pins the image bytes of a fixed format-plus-layout run, on
// one disk and on a 4-member parity volume. A change to the sector store,
// the image format, mkfs or the layout that moves any byte fails here.
func TestImageGolden(t *testing.T) {
	for _, tc := range []struct {
		members int
		want    string
	}{
		{1, "8e29429907e6256ae8ad2ec9a22088fc4536f760353ccaad0bf4f882db6c2d7f"},
		{4, "07ccb7744e6790697021aa7c5cacc0854d3f7701f2ac9c584c29d2335cafea6f"},
	} {
		if got := goldenImageHash(t, tc.members); got != tc.want {
			t.Errorf("%d member(s): image SHA-256 = %s, want %s", tc.members, got, tc.want)
		}
	}
}
