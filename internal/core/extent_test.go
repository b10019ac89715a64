package core

import (
	"testing"

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

func TestExtentsFor(t *testing.T) {
	blocks := make([]uint32, 64)
	for i := range blocks {
		blocks[i] = 500 + uint32(i)
	}
	m, _ := BuildExtentMap(blocks, 64*ufs.BlockSize, 256<<10) // 2 extents of 32 blocks
	all := m.ExtentsFor(0, 64*ufs.BlockSize)
	if len(all) != 2 {
		t.Fatalf("full range = %d extents", len(all))
	}
	first := m.ExtentsFor(0, 10)
	if len(first) != 1 || first[0].FileOff != 0 {
		t.Fatalf("tiny range = %v", first)
	}
	second := m.ExtentsFor(33*ufs.BlockSize, 34*ufs.BlockSize)
	if len(second) != 1 || second[0].FileOff != 32*ufs.BlockSize {
		t.Fatalf("second-half range = %v", second)
	}
	if got := m.ExtentsFor(64*ufs.BlockSize, 65*ufs.BlockSize); len(got) != 0 {
		t.Fatalf("out-of-range = %v", got)
	}
	// Boundary: a range ending exactly at an extent start excludes it.
	if got := m.ExtentsFor(0, 32*ufs.BlockSize); len(got) != 1 {
		t.Fatalf("boundary range = %d extents, want 1", len(got))
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
