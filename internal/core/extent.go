package core

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/ufs"
)

// Extent is a contiguous run of disk sectors backing a contiguous byte
// range of a media file. CRAS reads extents raw, on the real-time queue,
// with no file system in the loop.
type Extent struct {
	FileOff int64 // byte offset in the file of the first block in the run
	LBA     int64 // first sector
	Sectors int   // run length in sectors
}

// Bytes returns the extent length in bytes.
func (e Extent) Bytes() int64 { return int64(e.Sectors) * 512 }

// ExtentMap is a file's layout as CRAS sees it after open: contiguous
// physical runs, each capped at the configured maximum read size (256 KB in
// the paper), in file order.
type ExtentMap struct {
	Extents []Extent
	Size    int64 // file size in bytes
}

// BuildExtentMap converts a UFS block map into extents. maxReadBytes caps
// run length (the paper's 256 KB single-read optimum); holes (block 0) and
// a map too short for the file size are rejected — a continuous media file
// must be fully allocated, and the fetch walk reads any block up to the
// end of the file.
func BuildExtentMap(blocks []uint32, size int64, maxReadBytes int) (*ExtentMap, error) {
	if int64(len(blocks))*ufs.BlockSize < size {
		return nil, fmt.Errorf("core: media file of %d bytes has only %d blocks", size, len(blocks))
	}
	if maxReadBytes < ufs.BlockSize {
		maxReadBytes = ufs.BlockSize
	}
	maxBlocks := maxReadBytes / ufs.BlockSize
	m := &ExtentMap{Size: size}
	for i := 0; i < len(blocks); {
		if blocks[i] == 0 {
			return nil, fmt.Errorf("core: media file has a hole at block %d", i)
		}
		runStart := i
		for i+1 < len(blocks) &&
			blocks[i+1] == blocks[i]+1 &&
			i+1-runStart < maxBlocks {
			i++
		}
		i++
		m.Extents = append(m.Extents, Extent{
			FileOff: int64(runStart) * ufs.BlockSize,
			LBA:     int64(blocks[runStart]) * ufs.SectorsPerBlock,
			Sectors: (i - runStart) * ufs.SectorsPerBlock,
		})
	}
	return m, nil
}

// AverageRunBytes reports the mean extent length — the fragmentation
// indicator behind the Section 3.2 editing discussion.
func (m *ExtentMap) AverageRunBytes() int64 {
	if len(m.Extents) == 0 {
		return 0
	}
	var total int64
	for _, e := range m.Extents {
		total += e.Bytes()
	}
	return total / int64(len(m.Extents))
}

// DiskFootprint maps the extent map onto a striped volume's members: entry
// d is the total sectors of the file resident on member d. The scheduler
// does the same projection per read via Volume.Fragments; this whole-file
// form backs diagnostics and the stripe tests (a fully striped file spreads
// within one stripe row of even; a file smaller than a stripe unit sits on
// one member).
func (m *ExtentMap) DiskFootprint(v *disk.Volume) []int64 {
	out := make([]int64, v.NumDisks())
	for _, e := range m.Extents {
		for _, f := range v.Fragments(nil, e.LBA, e.Sectors) {
			out[f.Disk] += int64(f.Count)
		}
	}
	return out
}

// ExtentsFor returns the extents overlapping the byte range [lo, hi),
// clipped to whole extents (CRAS reads at block granularity; a range is
// covered by reading every extent it touches).
func (m *ExtentMap) ExtentsFor(lo, hi int64) []Extent {
	var out []Extent
	for _, e := range m.Extents {
		if e.FileOff+e.Bytes() <= lo {
			continue
		}
		if e.FileOff >= hi {
			break
		}
		out = append(out, e)
	}
	return out
}
