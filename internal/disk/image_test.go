package disk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/sim"
)

func TestImageRoundtrip(t *testing.T) {
	e, d := testDisk(1)
	payload := bytes.Repeat([]byte{0x3C}, 512)
	d.PokeSector(100, payload)
	d.PokeSector(99999, bytes.Repeat([]byte{0x11}, 512))
	_ = e

	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatalf("SaveImage: %v", err)
	}

	e2 := sim.NewEngine(2)
	d2, err := LoadImage(e2, "sd1", &buf)
	if err != nil {
		t.Fatalf("LoadImage: %v", err)
	}
	if d2.Geometry() != d.Geometry() {
		t.Fatalf("geometry differs: %+v vs %+v", d2.Geometry(), d.Geometry())
	}
	if d2.Params() != d.Params() {
		t.Fatalf("params differ")
	}
	if !bytes.Equal(d2.PeekSector(100), payload) {
		t.Fatal("sector 100 contents lost")
	}
	if d2.PeekSector(99999)[0] != 0x11 {
		t.Fatal("sector 99999 contents lost")
	}
	if d2.StoredSectors() != 2 {
		t.Fatalf("StoredSectors = %d, want 2", d2.StoredSectors())
	}
	if d2.PeekSector(5)[0] != 0 {
		t.Fatal("unwritten sector not zero after load")
	}
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	e := sim.NewEngine(1)
	if _, err := LoadImage(e, "x", bytes.NewReader([]byte("not an image at all............................................................................"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadImage(e, "x", bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestLoadImageTruncated(t *testing.T) {
	_, d := testDisk(1)
	d.PokeSector(7, make([]byte, 512))
	var buf bytes.Buffer
	d.SaveImage(&buf)
	raw := buf.Bytes()
	e := sim.NewEngine(1)
	if _, err := LoadImage(e, "x", bytes.NewReader(raw[:len(raw)-10])); err == nil {
		t.Fatal("truncated image accepted")
	}
}

// TestLoadImageRejectsHostileHeader rewrites one header field of a saved
// image to a value the disk model cannot run and requires LoadImage to
// refuse it with an *ImageError naming the field. Before LoadImage checked
// the header, a zero dimension panicked in New, a zero rotation time loaded
// and then divided by zero at the first request (Mount's superblock read),
// and a negative or overflowing time loaded and scheduled events in the
// past.
func TestLoadImageRejectsHostileHeader(t *testing.T) {
	_, d := testDisk(1)
	d.PokeSector(7, bytes.Repeat([]byte{1}, 512))
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	u32 := func(off int, v uint32) func([]byte) { return func(img []byte) { le.PutUint32(img[off:], v) } }
	u64 := func(off int, v uint64) func([]byte) { return func(img []byte) { le.PutUint64(img[off:], v) } }
	cases := []struct {
		name, field string
		edit        func(img []byte)
	}{
		{"Cylinders=0", "Cylinders", u32(8, 0)},
		{"Heads=0", "Heads", u32(12, 0)},
		{"SectorsPerTrack=0", "SectorsPerTrack", u32(16, 0)},
		{"SectorSize=0", "SectorSize", u32(20, 0)},
		{"2^93 sectors", "Cylinders", func(img []byte) {
			u32(8, 1<<31)(img)
			u32(12, 1<<31)(img)
			u32(16, 1<<31)(img)
		}},
		{"RotTime=0", "RotTime", u64(24, 0)},
		{"CmdOverhead<0", "CmdOverhead", u64(32, 1<<63)},
		{"SeekBase=2^62", "SeekBase", u64(40, 1<<62)},
		{"full stroke of years", "SeekSlope", u64(60, 1<<40)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := bytes.Clone(buf.Bytes())
			tc.edit(img)
			_, err := LoadImage(sim.NewEngine(1), "x", bytes.NewReader(img))
			var ie *ImageError
			switch {
			case err == nil:
				t.Fatal("LoadImage accepted the header")
			case !errors.As(err, &ie) || !errors.Is(err, ErrBadImage):
				t.Fatalf("LoadImage: %v, want an *ImageError", err)
			case ie.Field != tc.field:
				t.Fatalf("LoadImage blamed %s (%v), want %s", ie.Field, err, tc.field)
			}
		})
	}
}
