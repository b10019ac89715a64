package ufs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Regression tests for the panics FuzzMount and FuzzLoadImage found, one
// per kind of hostile metadata. Each edits the fuzz targets' formatted
// image behind the file system's back, then mounts it: where the file
// system used to read off the device, index a slice by a negative size or
// divide the device wrongly, it now returns a *CorruptError (or a
// *GeometryError) and Check reports a problem.

// hostileImage loads the fuzz image, lets edit rewrite it through a
// mounted file system's view (inode and directory locations), and returns
// the edited disk on a fresh engine for the test to mount.
func hostileImage(t *testing.T, edit func(p *sim.Proc, fs *FileSystem, d *disk.Disk)) (*sim.Engine, *disk.Disk) {
	t.Helper()
	e := sim.NewEngine(1)
	d, err := disk.LoadImage(e, "fz", bytes.NewReader(fuzzImage(t)))
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("edit", func(p *sim.Proc) {
		fs, err := Mount(p, d, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		edit(p, fs, d)
	})
	e.Run()
	return e, d
}

// editInode rewrites path's on-disk inode with fn.
func editInode(t *testing.T, p *sim.Proc, fs *FileSystem, d *disk.Disk, path string, fn func(in *Inode)) {
	t.Helper()
	st, err := fs.Stat(p, path)
	if err != nil {
		t.Fatal(err)
	}
	blk, off := fs.inodeLoc(st.Ino)
	buf := peekBlock(d, blk)
	var in Inode
	in.decode(buf[off : off+InodeSize])
	fn(&in)
	in.encode(buf[off : off+InodeSize])
	pokeBlock(d, blk, buf)
}

// remount mounts d again in a fresh process and runs fn on it.
func remount(t *testing.T, e *sim.Engine, d *disk.Disk, fn func(p *sim.Proc, fs *FileSystem)) {
	t.Helper()
	e.Spawn("remount", func(p *sim.Proc) {
		fs, err := Mount(p, d, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, fs)
	})
	e.Run()
}

// wantCorrupt fails unless err is a *CorruptError naming what.
func wantCorrupt(t *testing.T, op string, err error, what string) {
	t.Helper()
	var ce *CorruptError
	if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) || !strings.Contains(ce.What, what) {
		t.Errorf("%s: %v, want a *CorruptError about the %s", op, err, what)
	}
}

// wantProblem fails unless Check reports a problem containing text.
func wantProblem(t *testing.T, r *CheckReport, text string) {
	t.Helper()
	for _, pr := range r.Problems {
		if strings.Contains(pr, text) {
			return
		}
	}
	t.Errorf("Check problems %q, want one about %q", r.Problems, text)
}

// TestBlockPointerPastTheDevice: FuzzMount's first find. An indirect
// pointer past the device made Check (and every block-map walk) read a
// block the device does not have, which panics.
func TestBlockPointerPastTheDevice(t *testing.T) {
	e, d := hostileImage(t, func(p *sim.Proc, fs *FileSystem, d *disk.Disk) {
		editInode(t, p, fs, d, "/b", func(in *Inode) { in.Indirect = 1 << 30 })
	})
	remount(t, e, d, func(p *sim.Proc, fs *FileSystem) {
		wantProblem(t, fs.Check(p), "out-of-range indirect block")
		f, err := fs.Open(p, "/b")
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.BlockMap(p, nil)
		wantCorrupt(t, "BlockMap", err, "indirect block")
		_, err = f.ReadAt(p, make([]byte, 10), NDirect*BlockSize)
		wantCorrupt(t, "ReadAt", err, "indirect block")
	})
}

// TestDirectoryEntryPastTheInodeTables: an entry naming an inode past the
// last group's inode table made a lookup read its inode from a block past
// the device.
func TestDirectoryEntryPastTheInodeTables(t *testing.T) {
	e, d := hostileImage(t, func(p *sim.Proc, fs *FileSystem, d *disk.Disk) {
		root := fs.getInode(p, RootIno)
		buf := peekBlock(d, int64(root.Direct[0]))
		for off := 0; off < BlockSize; off += dirEntSize {
			if string(entName(buf[off:off+dirEntSize])) == "c" {
				putLeUint32(buf[off:], 1<<31)
			}
		}
		pokeBlock(d, int64(root.Direct[0]), buf)
	})
	remount(t, e, d, func(p *sim.Proc, fs *FileSystem) {
		_, err := fs.Stat(p, "/c")
		wantCorrupt(t, "Stat", err, "inode")
		wantProblem(t, fs.Check(p), "out-of-range inode")
	})
}

// TestHostileSizes: a negative directory size sliced the directory buffer
// with a negative bound, and a negative file size sized BlockMap's result
// with one; both panicked.
func TestHostileSizes(t *testing.T) {
	e, d := hostileImage(t, func(p *sim.Proc, fs *FileSystem, d *disk.Disk) {
		editInode(t, p, fs, d, "/d", func(in *Inode) { in.Size = -1 })
		editInode(t, p, fs, d, "/b", func(in *Inode) { in.Size = -1 << 40 })
	})
	remount(t, e, d, func(p *sim.Proc, fs *FileSystem) {
		_, err := fs.ReadDir(p, "/d")
		wantCorrupt(t, "ReadDir", err, "directory size")
		f, err := fs.Open(p, "/b")
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.BlockMap(p, nil)
		wantCorrupt(t, "BlockMap", err, "size")
		wantProblem(t, fs.Check(p), "size -1099511627776 out of range")
	})
}

// TestMountRefusesNon512ByteSectors: FuzzLoadImage's find. An image of a
// disk with 4 KB sectors loaded, and Mount's first block read handed the
// disk an 8 KB buffer for 16 sectors, which panics.
func TestMountRefusesNon512ByteSectors(t *testing.T) {
	e := sim.NewEngine(1)
	g, p := disk.ST32550N()
	g.Cylinders, g.SectorSize = 20, 4096
	d := disk.New(e, "sd0", g, p)
	e.Spawn("mount", func(p *sim.Proc) {
		_, err := Mount(p, d, Options{})
		var ge *GeometryError
		if !errors.As(err, &ge) || ge.Field != "SectorSize" || ge.Value != 4096 {
			t.Errorf("Mount = %v, want a *GeometryError about SectorSize 4096", err)
		}
	})
	e.Run()
}

// TestUnlinkRefusesTreesItCannotFree: the write side of the hostile image.
// Unlink of a file whose indirect pointer lies past the device panicked in
// truncateToZero's freeBlock ("request out of range"), and so did one
// whose tree names a free block, or a block twice ("double free"). Unlink
// now refuses each with a *CorruptError before it removes the directory
// entry, and the image is left byte for byte as it was.
func TestUnlinkRefusesTreesItCannotFree(t *testing.T) {
	for _, tc := range []struct {
		name, what string
		edit       func(t *testing.T, p *sim.Proc, fs *FileSystem, d *disk.Disk)
	}{
		{"indirect-past-the-device", "indirect block", func(t *testing.T, p *sim.Proc, fs *FileSystem, d *disk.Disk) {
			editInode(t, p, fs, d, "/b", func(in *Inode) { in.Indirect = 1 << 30 })
		}},
		{"slot-past-the-device", "indirect slot", func(t *testing.T, p *sim.Proc, fs *FileSystem, d *disk.Disk) {
			in := fs.getInode(p, mustIno(t, p, fs, "/b"))
			buf := peekBlock(d, int64(in.Indirect))
			putLeUint32(buf[2*4:], fs.sb.NBlocks)
			pokeBlock(d, int64(in.Indirect), buf)
		}},
		{"direct-past-the-device", "direct block", func(t *testing.T, p *sim.Proc, fs *FileSystem, d *disk.Disk) {
			editInode(t, p, fs, d, "/b", func(in *Inode) { in.Direct[NDirect-1] = 1<<32 - 1 })
		}},
		{"free-block", "direct block", func(t *testing.T, p *sim.Proc, fs *FileSystem, d *disk.Disk) {
			free := fs.sb.NBlocks - 1
			for g, off := fs.blockBit(p, free); bmpGet(g.blockBmp, off); g, off = fs.blockBit(p, free) {
				free--
			}
			editInode(t, p, fs, d, "/b", func(in *Inode) { in.Direct[3] = free })
		}},
		{"named-twice", "indirect slot", func(t *testing.T, p *sim.Proc, fs *FileSystem, d *disk.Disk) {
			in := fs.getInode(p, mustIno(t, p, fs, "/b"))
			buf := peekBlock(d, int64(in.Indirect))
			putLeUint32(buf[1*4:], in.Direct[5])
			pokeBlock(d, int64(in.Indirect), buf)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, d := hostileImage(t, func(p *sim.Proc, fs *FileSystem, d *disk.Disk) { tc.edit(t, p, fs, d) })
			before := saveImage(t, d)
			remount(t, e, d, func(p *sim.Proc, fs *FileSystem) {
				wantCorrupt(t, "Unlink", fs.Unlink(p, "/b"), tc.what)
				if _, err := fs.Stat(p, "/b"); err != nil {
					t.Errorf("Stat after the refused Unlink: %v", err)
				}
				fs.Sync(p)
			})
			if !bytes.Equal(saveImage(t, d), before) {
				t.Error("the refused Unlink changed the image")
			}
			// The other files still unlink.
			remount(t, e, d, func(p *sim.Proc, fs *FileSystem) {
				for _, path := range []string{"/d/a", "/c"} {
					if err := fs.Unlink(p, path); err != nil {
						t.Errorf("Unlink(%s): %v", path, err)
					}
				}
			})
		})
	}
}

// mustIno returns path's inode number.
func mustIno(t *testing.T, p *sim.Proc, fs *FileSystem, path string) uint32 {
	t.Helper()
	st, err := fs.Stat(p, path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Ino
}

// saveImage returns d's saved image.
func saveImage(t *testing.T, d *disk.Disk) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
