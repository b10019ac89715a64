package ufs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// smallDisk returns a ~43 MB disk, big enough for multi-group tests but
// fast to format.
func smallDisk(e *sim.Engine) *disk.Disk {
	g, p := disk.ST32550N()
	g.Cylinders = 200
	g.Heads = 4
	return disk.New(e, "sd0", g, p)
}

// withFS formats a small disk, mounts it, and runs fn inside a simulation
// process. The simulation runs to completion before withFS returns.
func withFS(t *testing.T, opts Options, fn func(p *sim.Proc, fs *FileSystem)) {
	t.Helper()
	e := sim.NewEngine(1)
	d := smallDisk(e)
	if _, err := Format(d, opts); err != nil {
		t.Fatalf("Format: %v", err)
	}
	e.Spawn("test", func(p *sim.Proc) {
		fs, err := Mount(p, d, opts)
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		fn(p, fs)
	})
	e.Run()
}

func TestFormatAndMount(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		sb := fs.Super()
		if sb.Magic != Magic || sb.Version != Version {
			t.Errorf("superblock = %+v", sb)
		}
		if sb.NGroups < 2 {
			t.Errorf("expected multiple groups, got %d", sb.NGroups)
		}
		st, err := fs.Stat(p, "/")
		if err != nil || !st.IsDir || st.Ino != RootIno {
			t.Errorf("root stat = %+v, %v", st, err)
		}
	})
}

func TestFormatTooSmall(t *testing.T) {
	e := sim.NewEngine(1)
	g, p := disk.ST32550N()
	g.Cylinders = 2
	g.Heads = 1
	d := disk.New(e, "tiny", g, p)
	if _, err := Format(d, Options{}); err != ErrTooSmall {
		t.Fatalf("Format on tiny disk = %v, want ErrTooSmall", err)
	}
}

func TestMountRejectsUnformattedDisk(t *testing.T) {
	e := sim.NewEngine(1)
	d := smallDisk(e)
	e.Spawn("test", func(p *sim.Proc) {
		if _, err := Mount(p, d, Options{}); err == nil {
			t.Error("Mount of unformatted disk succeeded")
		}
	})
	e.Run()
}

func TestCreateWriteReadRoundtrip(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		f, err := fs.Create(p, "/movie")
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		data := make([]byte, 3*BlockSize+1234)
		for i := range data {
			data[i] = byte(i % 251)
		}
		if n, err := f.WriteAt(p, data, 0); err != nil || n != len(data) {
			t.Fatalf("WriteAt = %d, %v", n, err)
		}
		if f.Size(p) != int64(len(data)) {
			t.Fatalf("Size = %d", f.Size(p))
		}
		buf := make([]byte, len(data))
		if n, err := f.ReadAt(p, buf, 0); err != nil || n != len(data) {
			t.Fatalf("ReadAt = %d, %v", n, err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatal("read-back differs")
		}
	})
}

func TestPartialBlockReadModifyWrite(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		f, _ := fs.Create(p, "/f")
		f.WriteAt(p, bytes.Repeat([]byte{1}, BlockSize), 0)
		f.WriteAt(p, []byte{9, 9, 9}, 100)
		buf := make([]byte, BlockSize)
		f.ReadAt(p, buf, 0)
		if buf[99] != 1 || buf[100] != 9 || buf[102] != 9 || buf[103] != 1 {
			t.Fatalf("read-modify-write corrupted block: %v", buf[98:105])
		}
	})
}

func TestReadPastEOF(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		f, _ := fs.Create(p, "/f")
		f.WriteAt(p, []byte("hello"), 0)
		buf := make([]byte, 100)
		n, err := f.ReadAt(p, buf, 0)
		if err != nil || n != 5 {
			t.Fatalf("short read = %d, %v", n, err)
		}
		n, err = f.ReadAt(p, buf, 1000)
		if err != nil || n != 0 {
			t.Fatalf("read past EOF = %d, %v", n, err)
		}
	})
}

func TestHolesReadAsZeros(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		f, _ := fs.Create(p, "/sparse")
		f.WriteAt(p, []byte{0xFF}, 5*BlockSize) // blocks 0-4 are holes
		buf := make([]byte, BlockSize)
		f.ReadAt(p, buf, 2*BlockSize)
		for _, b := range buf {
			if b != 0 {
				t.Fatal("hole returned non-zero data")
			}
		}
		bm, _ := f.BlockMap(p, nil)
		for i := 0; i < 5; i++ {
			if bm[i] != 0 {
				t.Fatalf("hole block %d mapped to %d", i, bm[i])
			}
		}
		if bm[5] == 0 {
			t.Fatal("written block not mapped")
		}
	})
}

func TestIndirectBlocks(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		f, _ := fs.Create(p, "/big")
		// Write a marker into a block well beyond the direct range.
		marker := bytes.Repeat([]byte{0xAB}, 64)
		off := int64(NDirect+100) * BlockSize
		if _, err := f.WriteAt(p, marker, off); err != nil {
			t.Fatalf("indirect write: %v", err)
		}
		buf := make([]byte, 64)
		f.ReadAt(p, buf, off)
		if !bytes.Equal(buf, marker) {
			t.Fatal("indirect block readback differs")
		}
	})
}

func TestDoubleIndirectViaPreallocate(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		f, _ := fs.Create(p, "/huge")
		// Cross into the double-indirect range: > (12 + 2048) blocks.
		size := int64(NDirect+PtrsPerBlock+10) * BlockSize
		if err := f.Preallocate(p, size); err != nil {
			t.Fatalf("Preallocate: %v", err)
		}
		if f.Size(p) != size {
			t.Fatalf("Size = %d, want %d", f.Size(p), size)
		}
		bm, err := f.BlockMap(p, nil)
		if err != nil {
			t.Fatalf("BlockMap: %v", err)
		}
		if int64(len(bm)) != size/BlockSize {
			t.Fatalf("map has %d entries, want %d", len(bm), size/BlockSize)
		}
		for i, b := range bm {
			if b == 0 {
				t.Fatalf("preallocated block %d unmapped", i)
			}
		}
		// Preallocated-but-unwritten data reads as zeros (fresh disk).
		buf := make([]byte, 128)
		f.ReadAt(p, buf, size-256)
		for _, b := range buf {
			if b != 0 {
				t.Fatal("preallocated block returned non-zero data")
			}
		}
	})
}

func TestContiguousAllocationWhenTuned(t *testing.T) {
	withFS(t, Options{RotDelay: 0}, func(p *sim.Proc, fs *FileSystem) {
		f, _ := fs.Create(p, "/seq")
		if err := f.Preallocate(p, 100*BlockSize); err != nil {
			t.Fatalf("Preallocate: %v", err)
		}
		bm, _ := f.BlockMap(p, nil)
		breaks := 0
		for i := 1; i < len(bm); i++ {
			if bm[i] != bm[i-1]+1 {
				breaks++
			}
		}
		if breaks > 2 { // indirect block allocation may split the run once
			t.Fatalf("tuned layout has %d discontinuities in 100 blocks", breaks)
		}
	})
}

func TestRotDelayFragmentsLayout(t *testing.T) {
	withFS(t, Options{MaxContig: 4, RotDelay: 2}, func(p *sim.Proc, fs *FileSystem) {
		f, _ := fs.Create(p, "/frag")
		f.Preallocate(p, 64*BlockSize)
		bm, _ := f.BlockMap(p, nil)
		breaks := 0
		for i := 1; i < len(bm); i++ {
			if bm[i] != bm[i-1]+1 {
				breaks++
			}
		}
		if breaks < 10 {
			t.Fatalf("rotdelay layout has only %d discontinuities in 64 blocks", breaks)
		}
	})
}

func TestUnlinkFreesBlocks(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		// Warm the root directory so its own block allocation doesn't count.
		fs.Create(p, "/warmup")
		before := fs.FreeBlocks(p)
		f, _ := fs.Create(p, "/victim")
		f.Preallocate(p, int64(NDirect+50)*BlockSize) // includes an indirect block
		during := fs.FreeBlocks(p)
		if during >= before {
			t.Fatal("allocation did not consume blocks")
		}
		if err := fs.Unlink(p, "/victim"); err != nil {
			t.Fatalf("Unlink: %v", err)
		}
		after := fs.FreeBlocks(p)
		if after != before {
			t.Fatalf("free blocks: before=%d after=%d (leak of %d)", before, after, before-after)
		}
		if _, err := fs.Open(p, "/victim"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Open after unlink = %v", err)
		}
	})
}

// TestInodeLookasideFollowsMap frees an inode right after looking it up and
// then allocates it again: each getInode must return the inode the map
// holds (or loads) at that moment, never the one remembered from before.
func TestInodeLookasideFollowsMap(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		f, err := fs.Create(p, "/old")
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		ino := f.Ino()
		old := fs.getInode(p, ino)
		old.Size = 5000
		fs.freeInode(p, ino)
		if in := fs.getInode(p, ino); in == old || in.Mode != ModeFree {
			t.Fatalf("getInode after freeInode = %+v, want the freed on-disk inode", in)
		}
		got, err := fs.allocInode(p, int(ino/fs.sb.InodesPerGroup), ModeFile)
		if err != nil || got != ino {
			t.Fatalf("allocInode = %d, %v; want the freed %d", got, err, ino)
		}
		if in := fs.getInode(p, ino); in != fs.inodes[ino] || in.Size != 0 {
			t.Fatalf("getInode after allocInode = %+v, want the map's fresh inode", in)
		}
	})
}

func TestSyncPersistsAcrossRemount(t *testing.T) {
	e := sim.NewEngine(1)
	d := smallDisk(e)
	Format(d, Options{})
	data := bytes.Repeat([]byte{0x42}, 2*BlockSize)
	e.Spawn("writer", func(p *sim.Proc) {
		fs, _ := Mount(p, d, Options{})
		fs.Mkdir(p, "/dir")
		f, _ := fs.Create(p, "/dir/file")
		f.WriteAt(p, data, 0)
		fs.Sync(p)

		// Remount with a cold cache: everything must come from disk.
		fs2, err := Mount(p, d, Options{})
		if err != nil {
			t.Errorf("remount: %v", err)
			return
		}
		f2, err := fs2.Open(p, "/dir/file")
		if err != nil {
			t.Errorf("open after remount: %v", err)
			return
		}
		buf := make([]byte, len(data))
		n, _ := f2.ReadAt(p, buf, 0)
		if n != len(data) || !bytes.Equal(buf, data) {
			t.Error("data lost across sync+remount")
		}
	})
	e.Run()
}

// Formatting over a used volume must leave exactly what a fresh format
// leaves: the old files' group headers, bitmaps and inodes are rewritten,
// so the root is empty, every block is free again and fsck is clean.
func TestReformatOverDirtyVolume(t *testing.T) {
	e := sim.NewEngine(1)
	d := smallDisk(e)
	if _, err := Format(d, Options{}); err != nil {
		t.Fatalf("Format: %v", err)
	}
	e.Spawn("reformat", func(p *sim.Proc) {
		fs, _ := Mount(p, d, Options{})
		freshRoot, _ := fs.ReadDir(p, "/")
		freshFree := fs.FreeBlocks(p)
		if err := fs.MkdirAll(p, "/a/b"); err != nil {
			t.Errorf("MkdirAll: %v", err)
			return
		}
		for i, path := range []string{"/a/f", "/a/b/g", "/h", "/big"} {
			f, err := fs.Create(p, path)
			if err == nil {
				_, err = f.WriteAt(p, bytes.Repeat([]byte{byte(i + 1)}, 3*BlockSize), 0)
			}
			if err != nil {
				t.Errorf("write %s: %v", path, err)
				return
			}
			if path == "/big" {
				err = f.Preallocate(p, int64(fs.Super().BlocksPerGroup)*BlockSize) // spans groups
			}
			if err != nil {
				t.Errorf("preallocate %s: %v", path, err)
				return
			}
		}
		fs.Sync(p)
		var oldInos []uint32
		for _, path := range []string{"/a", "/a/b", "/a/f", "/a/b/g", "/h", "/big"} {
			st, _ := fs.Stat(p, path)
			oldInos = append(oldInos, st.Ino)
		}
		if fs.FreeBlocks(p) >= freshFree-int64(fs.Super().BlocksPerGroup) {
			t.Errorf("volume not dirty before re-Format: %d of %d blocks free", fs.FreeBlocks(p), freshFree)
		}

		if _, err := Format(d, Options{}); err != nil {
			t.Errorf("re-Format: %v", err)
			return
		}
		fs2, err := Mount(p, d, Options{})
		if err != nil {
			t.Errorf("Mount after re-Format: %v", err)
			return
		}
		root, err := fs2.ReadDir(p, "/")
		if err != nil || len(root) != len(freshRoot) {
			t.Errorf("root after re-Format = %v, %v; fresh root = %v", root, err, freshRoot)
		}
		if got := fs2.FreeBlocks(p); got != freshFree {
			t.Errorf("free blocks after re-Format = %d, fresh = %d", got, freshFree)
		}
		for _, ino := range oldInos {
			if in := fs2.getInode(p, ino); in.Mode != 0 {
				t.Errorf("inode %d survived re-Format with mode %d", ino, in.Mode)
			}
		}
		if _, err := fs2.Open(p, "/h"); !errors.Is(err, ErrNotFound) {
			t.Errorf("old file still opens after re-Format: %v", err)
		}
		r := fs2.Check(p)
		if !r.OK() || r.Files != 0 || r.Dirs != 1 {
			t.Errorf("fsck after re-Format: %d files %d dirs, problems %v", r.Files, r.Dirs, r.Problems)
		}
	})
	e.Run()
}

// TestFormatClearsStaleInodeTables formats over devices whose inode tables
// hold stale payload (in every sector of some groups, in one sector of
// others, in none of the rest), on a bare disk and on a parity volume.
// Format skips the tables it finds blank, so this is what keeps it zeroing
// the others: afterwards every inode block must read as zeros but for the
// root's inode, and every member's sectors, parity included, must be those
// of a fresh format.
func TestFormatClearsStaleInodeTables(t *testing.T) {
	opts := Options{BlocksPerGroup: 256, InodeBlocksPerG: 2}
	g, dp := disk.ST32550N()
	g.Cylinders, g.Heads = 40, 4
	devices := map[string]func(e *sim.Engine) (BlockDevice, []*disk.Disk){
		"disk": func(e *sim.Engine) (BlockDevice, []*disk.Disk) {
			d := disk.New(e, "sd0", g, dp)
			return d, []*disk.Disk{d}
		},
		"parity": func(e *sim.Engine) (BlockDevice, []*disk.Disk) {
			members := make([]*disk.Disk, 3)
			for i := range members {
				members[i] = disk.New(e, fmt.Sprintf("sd%d", i), g, dp)
			}
			v, err := disk.NewParityVolume("par", members, 2*SectorsPerBlock)
			if err != nil {
				t.Fatal(err)
			}
			return v, members
		},
	}
	for name, newDevice := range devices {
		fresh, freshMembers := newDevice(sim.NewEngine(1))
		sb, err := Format(fresh, opts)
		if err != nil {
			t.Fatal(err)
		}
		used, usedMembers := newDevice(sim.NewEngine(1))
		if _, err := Format(used, opts); err != nil {
			t.Fatal(err)
		}
		stale := bytes.Repeat([]byte{0xA5}, BlockSize)
		for gi := uint32(0); gi < sb.NGroups; gi++ {
			tbl := int64(1+gi*sb.BlocksPerGroup+1) * SectorsPerBlock
			switch gi % 3 {
			case 0:
				for b := range int64(sb.InodeBlocksPerG) {
					used.PokeSectors(tbl+b*SectorsPerBlock, stale)
				}
			case 1:
				last := tbl + int64(sb.InodeBlocksPerG)*SectorsPerBlock - 1
				used.PokeSectors(last, stale[:512])
			}
		}
		if _, err := Format(used, opts); err != nil {
			t.Fatal(err)
		}
		blk := make([]byte, BlockSize)
		for gi := uint32(0); gi < sb.NGroups; gi++ {
			for b := range sb.InodeBlocksPerG {
				lba := int64(1+gi*sb.BlocksPerGroup+1+b) * SectorsPerBlock
				used.PeekSectors(lba, blk)
				if gi == 0 && b == 0 {
					clear(blk[RootIno*InodeSize : (RootIno+1)*InodeSize])
				}
				if !allZeroBytes(blk) {
					t.Errorf("%s: group %d inode block %d holds stale bytes after Format", name, gi, b)
				}
			}
		}
		for i, m := range usedMembers {
			want := make([]byte, g.TotalSectors()*512)
			got := make([]byte, len(want))
			freshMembers[i].PeekSectors(0, want)
			m.PeekSectors(0, got)
			if !bytes.Equal(got, want) || m.StoredSectors() != freshMembers[i].StoredSectors() {
				t.Errorf("%s: member %d differs from a fresh format's (%d sectors stored, fresh %d)", name, i, m.StoredSectors(), freshMembers[i].StoredSectors())
			}
		}
	}
}

func TestDirectoryOperations(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		if err := fs.Mkdir(p, "/a"); err != nil {
			t.Fatalf("Mkdir: %v", err)
		}
		if err := fs.Mkdir(p, "/a/b"); err != nil {
			t.Fatalf("nested Mkdir: %v", err)
		}
		if err := fs.Mkdir(p, "/a"); !errors.Is(err, ErrExists) {
			t.Fatalf("duplicate Mkdir = %v", err)
		}
		if _, err := fs.Create(p, "/a/b/f1"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		if _, err := fs.Create(p, "/a/b/f2"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		if _, err := fs.Create(p, "/a/b/f1"); !errors.Is(err, ErrExists) {
			t.Fatalf("duplicate Create = %v", err)
		}
		if _, err := fs.Create(p, "/nosuch/f"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Create in missing dir = %v", err)
		}
		ents, err := fs.ReadDir(p, "/a/b")
		if err != nil || len(ents) != 2 {
			t.Fatalf("ReadDir = %v, %v", ents, err)
		}
		if err := fs.Unlink(p, "/a/b"); !errors.Is(err, ErrExists) {
			t.Fatalf("Unlink of non-empty dir = %v", err)
		}
		fs.Unlink(p, "/a/b/f1")
		fs.Unlink(p, "/a/b/f2")
		if err := fs.Unlink(p, "/a/b"); err != nil {
			t.Fatalf("Unlink of empty dir = %v", err)
		}
		if _, err := fs.Stat(p, "/a/b"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Stat after rmdir = %v", err)
		}
	})
}

func TestDirEntryReuse(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		fs.Create(p, "/x")
		fs.Create(p, "/y")
		fs.Unlink(p, "/x")
		fs.Create(p, "/z") // should reuse x's slot
		st, _ := fs.Stat(p, "/")
		if st.Size != 2*dirEntSize {
			t.Fatalf("root dir size = %d, want %d (slot reuse)", st.Size, 2*dirEntSize)
		}
	})
}

func TestNameValidation(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		long := make([]byte, maxNameLen+1)
		for i := range long {
			long[i] = 'a'
		}
		if _, err := fs.Create(p, "/"+string(long)); err != ErrNameTooLong {
			t.Fatalf("overlong name = %v", err)
		}
		if _, err := fs.Open(p, "/no/such/path"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing path = %v", err)
		}
	})
}

func TestOpenDirectoryAsFileFails(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		fs.Mkdir(p, "/d")
		if _, err := fs.Open(p, "/d"); err != ErrIsDir {
			t.Fatalf("Open(dir) = %v", err)
		}
		if _, err := fs.ReadDir(p, "/d"); err != nil {
			t.Fatalf("ReadDir = %v", err)
		}
		fs.Create(p, "/f")
		if _, err := fs.ReadDir(p, "/f"); err != ErrNotDir {
			t.Fatalf("ReadDir(file) = %v", err)
		}
	})
}

func TestNoSpace(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		f, _ := fs.Create(p, "/filler")
		free := fs.FreeBlocks(p)
		// Ask for more than the disk holds.
		err := f.Preallocate(p, (free+1000)*BlockSize)
		if err != ErrNoSpace {
			t.Fatalf("Preallocate beyond capacity = %v", err)
		}
	})
}

// Property: files never share blocks, and every mapped block is a valid
// data block (not superblock, group header, or inode area).
func TestPropertyAllocatorNoOverlap(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 12 {
			return true
		}
		ok := true
		withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
			seen := make(map[uint32]string)
			for i, s := range sizes {
				name := "/f" + string(rune('a'+i))
				fh, err := fs.Create(p, name)
				if err != nil {
					ok = false
					return
				}
				size := int64(s%2000) * 512
				if err := fh.Preallocate(p, size); err != nil {
					ok = false
					return
				}
				bm, _ := fh.BlockMap(p, nil)
				for _, b := range bm {
					if b == 0 {
						continue
					}
					if prev, dup := seen[b]; dup {
						t.Logf("block %d shared by %s and %s", b, prev, name)
						ok = false
						return
					}
					seen[b] = name
					if b >= fs.sb.NBlocks {
						ok = false
						return
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestReadAheadImprovesSequentialThroughput(t *testing.T) {
	run := func(ra int) sim.Time {
		e := sim.NewEngine(1)
		d := smallDisk(e)
		Format(d, Options{})
		var elapsed sim.Time
		e.Spawn("reader", func(p *sim.Proc) {
			fs, _ := Mount(p, d, Options{ReadAheadBlocks: ra, CacheBlocks: 64})
			f, _ := fs.Create(p, "/m")
			f.Preallocate(p, 256*BlockSize)
			start := e.Now()
			buf := make([]byte, BlockSize)
			for i := int64(0); i < 256; i++ {
				f.ReadAt(p, buf, i*BlockSize)
				p.Sleep(2 * time.Millisecond) // consumer pacing, lets prefetch win
			}
			elapsed = e.Now() - start
		})
		e.Run()
		return elapsed
	}
	with := run(8)
	// Read-ahead 1 still prefetches one block; compare against none by
	// using a degenerate cache that can't hold a window.
	without := run(1)
	if with >= without {
		t.Fatalf("read-ahead window did not help: with=%v without=%v", with, without)
	}
}

func TestCacheStatsCounting(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		f, _ := fs.Create(p, "/f")
		f.WriteAt(p, bytes.Repeat([]byte{1}, BlockSize), 0)
		h0 := fs.Cache().Hits
		buf := make([]byte, BlockSize)
		f.ReadAt(p, buf, 0) // block is still cached from the write
		if fs.Cache().Hits <= h0 {
			t.Fatal("expected a cache hit on freshly written block")
		}
		if fs.Cache().Misses == 0 {
			t.Fatal("expected misses from metadata loads")
		}
	})
}

// TestDirectoryScanAllocs checks that looking a name up, and adding and
// removing an entry, allocate nothing once the directory is cached: the
// scan reads into the file system's reused buffer and compares names in
// place.
func TestDirectoryScanAllocs(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		for i := 0; i < 40; i++ {
			if _, err := fs.Create(p, fmt.Sprintf("/movie%02d", i)); err != nil {
				t.Fatal(err)
			}
		}
		ino := uint32(0)
		lookup := func() {
			_, got, err := fs.dirLookup(p, RootIno, "movie31")
			if err != nil || got == 0 {
				t.Fatalf("dirLookup = %d, %v", got, err)
			}
			ino = got
			if _, _, err := fs.dirLookup(p, RootIno, "absent"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("dirLookup of a missing name = %v", err)
			}
		}
		addRemove := func() {
			if err := fs.dirAdd(p, RootIno, "alias", ino, ModeFile); err != nil {
				t.Fatal(err)
			}
			if err := fs.dirRemove(p, RootIno, "alias"); err != nil {
				t.Fatal(err)
			}
		}
		lookup()
		addRemove()
		if n := testing.AllocsPerRun(50, lookup); n != 0 {
			t.Errorf("dirLookup allocates %v times per hit and miss", n)
		}
		if n := testing.AllocsPerRun(50, addRemove); n != 0 {
			t.Errorf("dirAdd + dirRemove allocate %v times", n)
		}
	})
}
