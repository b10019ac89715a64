package disk

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/sim"
)

// Image serialization lets tools hand a prepared volume to one another
// (mkcmfs writes an image, crasplay mounts it). Only explicitly written
// sectors are stored, so an image of a 2 GB volume holding sparse media
// files is a few hundred kilobytes of metadata.

const (
	imageMagic      = 0x434d494d // "CMIM"
	imageHeaderSize = 76
)

// SaveImage writes the disk's geometry, timing parameters and stored
// sectors to w.
func (d *Disk) SaveImage(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	hdr := make([]byte, 0, imageHeaderSize)
	hdr = le.AppendUint32(hdr, imageMagic)
	hdr = le.AppendUint32(hdr, 1) // version
	hdr = le.AppendUint32(hdr, uint32(d.geo.Cylinders))
	hdr = le.AppendUint32(hdr, uint32(d.geo.Heads))
	hdr = le.AppendUint32(hdr, uint32(d.geo.SectorsPerTrack))
	hdr = le.AppendUint32(hdr, uint32(d.geo.SectorSize))
	hdr = le.AppendUint64(hdr, uint64(d.par.RotTime))
	hdr = le.AppendUint64(hdr, uint64(d.par.CmdOverhead))
	hdr = le.AppendUint64(hdr, uint64(d.par.SeekBase))
	hdr = le.AppendUint64(hdr, uint64(d.par.SeekSqrtCoeff))
	hdr = le.AppendUint32(hdr, uint32(d.par.SeekKnee))
	hdr = le.AppendUint64(hdr, uint64(d.par.SeekSlope))
	hdr = le.AppendUint64(hdr, uint64(d.StoredSectors()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	// Deterministic order: ascending LBA.
	keys := make([]int64, 0, len(d.sectors))
	for key := range d.sectors {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	var rec [8]byte
	for _, key := range keys {
		for j, sec := range d.sectors[key] {
			if sec == nil {
				continue
			}
			le.PutUint64(rec[:], uint64(key*slabSectors+int64(j)))
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
			if _, err := bw.Write(sec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ErrBadImage is what every *ImageError matches under errors.Is.
var ErrBadImage = errors.New("disk: image header describes no disk the model can run")

// ImageError is LoadImage's refusal of an image header: Field holds Value,
// which breaks the rule Why states.
type ImageError struct {
	Field string
	Value uint64
	Why   string
}

func (e *ImageError) Error() string {
	return fmt.Sprintf("disk: image %s = %d: %s", e.Field, e.Value, e.Why)
}

// Unwrap returns ErrBadImage.
func (e *ImageError) Unwrap() error { return ErrBadImage }

// Bounds on what an image header may describe: enough for any real disk,
// small enough that the model's arithmetic (sector counts, nanosecond
// service times) cannot overflow and a header alone cannot make LoadImage
// allocate gigabytes.
const (
	maxImageSectorSize = 64 << 10
	maxImageSectors    = 1 << 40
	maxImageTime       = sim.Time(time.Minute)
)

// validateImage checks the geometry and timing model an image header
// describes before New builds a disk from them: every dimension positive
// and bounded, every duration non-negative, a rotation that takes time,
// and a full-stroke seek under a minute.
func validateImage(g Geometry, p Params) error {
	bad := func(field string, v uint64, why string) error {
		return &ImageError{Field: field, Value: v, Why: why}
	}
	for _, d := range []struct {
		name string
		v    int
	}{{"Cylinders", g.Cylinders}, {"Heads", g.Heads}, {"SectorsPerTrack", g.SectorsPerTrack}, {"SectorSize", g.SectorSize}} {
		if d.v <= 0 {
			return bad(d.name, uint64(d.v), "must be positive")
		}
	}
	if g.SectorSize > maxImageSectorSize {
		return bad("SectorSize", uint64(g.SectorSize), fmt.Sprintf("exceeds %d bytes", maxImageSectorSize))
	}
	if float64(g.Cylinders)*float64(g.Heads)*float64(g.SectorsPerTrack) > maxImageSectors {
		return bad("Cylinders", uint64(g.Cylinders), fmt.Sprintf("with %d heads of %d sectors exceeds %d sectors", g.Heads, g.SectorsPerTrack, int64(maxImageSectors)))
	}
	for _, d := range []struct {
		name string
		v    sim.Time
	}{{"RotTime", p.RotTime}, {"CmdOverhead", p.CmdOverhead}, {"SeekBase", p.SeekBase}, {"SeekSqrtCoeff", p.SeekSqrtCoeff}, {"SeekSlope", p.SeekSlope}} {
		if d.v < 0 || d.v > maxImageTime {
			return bad(d.name, uint64(d.v), fmt.Sprintf("must be between 0 and %v", maxImageTime))
		}
	}
	if p.RotTime == 0 {
		return bad("RotTime", 0, "must be positive")
	}
	knee := min(p.SeekKnee, g.Cylinders)
	stroke := float64(p.SeekBase) + float64(p.SeekSqrtCoeff)*math.Sqrt(float64(knee)) + float64(g.Cylinders-knee)*float64(p.SeekSlope)
	if stroke > float64(maxImageTime) {
		return bad("SeekSlope", uint64(p.SeekSlope), fmt.Sprintf("makes a full-stroke seek longer than %v", maxImageTime))
	}
	return nil
}

// LoadImage reconstructs a disk from an image on a fresh engine. A header
// describing a disk the model cannot run is refused with an *ImageError.
func LoadImage(eng *sim.Engine, name string, r io.Reader) (*Disk, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	hdr := make([]byte, imageHeaderSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("disk: short image header: %w", err)
	}
	if le.Uint32(hdr[0:]) != imageMagic {
		return nil, fmt.Errorf("disk: bad image magic")
	}
	if le.Uint32(hdr[4:]) != 1 {
		return nil, fmt.Errorf("disk: unsupported image version %d", le.Uint32(hdr[4:]))
	}
	g := Geometry{
		Cylinders:       int(le.Uint32(hdr[8:])),
		Heads:           int(le.Uint32(hdr[12:])),
		SectorsPerTrack: int(le.Uint32(hdr[16:])),
		SectorSize:      int(le.Uint32(hdr[20:])),
	}
	p := Params{
		RotTime:       sim.Time(le.Uint64(hdr[24:])),
		CmdOverhead:   sim.Time(le.Uint64(hdr[32:])),
		SeekBase:      sim.Time(le.Uint64(hdr[40:])),
		SeekSqrtCoeff: sim.Time(le.Uint64(hdr[48:])),
		SeekKnee:      int(le.Uint32(hdr[56:])),
		SeekSlope:     sim.Time(le.Uint64(hdr[60:])),
	}
	if err := validateImage(g, p); err != nil {
		return nil, err
	}
	count := le.Uint64(hdr[68:])
	d := New(eng, name, g, p)
	buf := make([]byte, 8+g.SectorSize)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("disk: truncated image at sector %d: %w", i, err)
		}
		lba := int64(le.Uint64(buf))
		if lba < 0 || lba >= g.TotalSectors() {
			return nil, fmt.Errorf("disk: image sector %d: lba %d outside the disk", i, lba)
		}
		key, off, _ := slabSpan(lba, 1)
		d.writeSlab(key, off, 1, buf[8:])
	}
	return d, nil
}
