package core

import (
	"fmt"

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
// the paper), in file order. A map is immutable once built: the server
// shares one map among every session playing the same layout.
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
	m := &ExtentMap{Size: size}
	err := walkExtents(blocks, size, maxReadBytes, func(e Extent) bool {
		m.Extents = append(m.Extents, e)
		return true
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// matches reports whether BuildExtentMap(blocks, size, maxReadBytes) would
// return a map equal to m, without building one or allocating.
func (m *ExtentMap) matches(blocks []uint32, size int64, maxReadBytes int) bool {
	if m.Size != size {
		return false
	}
	n, same := 0, true
	err := walkExtents(blocks, size, maxReadBytes, func(e Extent) bool {
		same = n < len(m.Extents) && m.Extents[n] == e
		n++
		return same
	})
	// A map built from no blocks has no extents slice at all.
	return err == nil && same && n == len(m.Extents) && (n > 0 || m.Extents == nil)
}

// walkExtents hands yield the extents of a block map in file order, until
// yield returns false, and returns the error BuildExtentMap reports for
// the map. A hole past the point yield stopped at goes unreported.
func walkExtents(blocks []uint32, size int64, maxReadBytes int, yield func(Extent) bool) error {
	if int64(len(blocks))*ufs.BlockSize < size {
		return fmt.Errorf("core: media file of %d bytes has only %d blocks", size, len(blocks))
	}
	maxBlocks := max(maxReadBytes, ufs.BlockSize) / ufs.BlockSize
	for i := 0; i < len(blocks); {
		if blocks[i] == 0 {
			return fmt.Errorf("core: media file has a hole at block %d", i)
		}
		runStart := i
		for i+1 < len(blocks) &&
			blocks[i+1] == blocks[i]+1 &&
			i+1-runStart < maxBlocks {
			i++
		}
		i++
		if !yield(Extent{
			FileOff: int64(runStart) * ufs.BlockSize,
			LBA:     int64(blocks[runStart]) * ufs.SectorsPerBlock,
			Sectors: (i - runStart) * ufs.SectorsPerBlock,
		}) {
			return nil
		}
	}
	return nil
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
