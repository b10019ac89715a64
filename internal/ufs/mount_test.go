package ufs

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// TestMountRejectsHostileGeometry formats a small disk, rewrites one
// superblock field to a value the file system cannot serve, and requires
// Mount to refuse it with a *GeometryError naming the field. Before Mount
// checked geometry, the first three cases mounted and then divided by zero
// (inode lookup, Preallocate's goal chain) or ran requests off the disk,
// and the fourth mounted and passed Check with a group that has no room
// for its own inode blocks.
func TestMountRejectsHostileGeometry(t *testing.T) {
	cases := []struct {
		name  string
		field string
		edit  func(sb *Super)
	}{
		{"InodesPerGroup=0", "InodesPerGroup", func(sb *Super) { sb.InodesPerGroup = 0 }},
		{"MaxContig=0,RotDelay=2", "MaxContig", func(sb *Super) { sb.MaxContig, sb.RotDelay = 0, 2 }},
		{"NGroups=2^30", "NGroups", func(sb *Super) { sb.NGroups = 1 << 30 }},
		{"InodeBlocksPerG=2^30", "InodeBlocksPerG", func(sb *Super) { sb.InodeBlocksPerG = 1 << 30 }},
		{"BlocksPerGroup=0", "BlocksPerGroup", func(sb *Super) { sb.BlocksPerGroup = 0 }},
		{"NGroups=0", "NGroups", func(sb *Super) { sb.NGroups = 0 }},
		{"NBlocks past the device", "NBlocks", func(sb *Super) { sb.NBlocks *= 2 }},
		{"InodesPerGroup past its blocks", "InodesPerGroup", func(sb *Super) { sb.InodesPerGroup = sb.InodeBlocksPerG*InodesPerBlock + 1 }},
		{"bitmaps past the header", "BlocksPerGroup", func(sb *Super) { sb.BlocksPerGroup = 8 * BlockSize }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			d := smallDisk(e)
			if _, err := Format(d, Options{}); err != nil {
				t.Fatal(err)
			}
			var sb Super
			if err := sb.decode(peekBlock(d, 0)); err != nil {
				t.Fatal(err)
			}
			tc.edit(&sb)
			buf := make([]byte, BlockSize)
			sb.encode(buf)
			pokeBlock(d, 0, buf)
			e.Spawn("mount", func(p *sim.Proc) {
				_, err := Mount(p, d, Options{})
				var ge *GeometryError
				switch {
				case err == nil:
					t.Errorf("Mount accepted %+v", sb)
				case !errors.As(err, &ge) || !errors.Is(err, ErrBadGeometry):
					t.Errorf("Mount: %v, want a *GeometryError", err)
				case ge.Field != tc.field:
					t.Errorf("Mount blamed %s (%v), want %s", ge.Field, err, tc.field)
				}
			})
			e.Run()
		})
	}
}

// TestFormatRefusesUnmountableOptions checks Format applies Mount's
// geometry rules: a group too small for its inode blocks is refused before
// anything is written.
func TestFormatRefusesUnmountableOptions(t *testing.T) {
	e := sim.NewEngine(1)
	d := smallDisk(e)
	_, err := Format(d, Options{BlocksPerGroup: 8, InodeBlocksPerG: 7})
	if !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("Format = %v, want ErrBadGeometry", err)
	}
	if n := d.StoredSectors(); n != 0 {
		t.Fatalf("Format wrote %d sectors before refusing", n)
	}
}
