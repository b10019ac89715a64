package ufs

import (
	"errors"
	"strings"

	"repro/internal/sim"
)

// Directory entries are fixed 64-byte records: inode number, file type,
// name length, then the name. An entry with inode 0 is free.
const (
	dirEntSize = 64
	maxNameLen = dirEntSize - 6
)

// putDirEnt writes an entry record into rec, which is dirEntSize bytes.
func putDirEnt(rec []byte, ino uint32, ftype uint8, name string) {
	putLeUint32(rec[0:], ino)
	rec[4] = ftype
	rec[5] = uint8(len(name))
	clear(rec[6+copy(rec[6:], name):])
}

// entIno and entName decode an entry record.
func entIno(rec []byte) uint32 { return leUint32(rec) }
func entName(rec []byte) []byte {
	return rec[6 : 6+min(int(rec[5]), maxNameLen)]
}

// DirEntry is a name/inode pair returned by ReadDir.
type DirEntry struct {
	Name  string
	Ino   uint32
	IsDir bool
}

// readDir reads every entry record of a directory inode — one ReadAt over
// the whole directory through a fresh handle — into the file system's
// reused buffer, trimmed to whole records. The result is valid until the
// next readDir. A directory lists each inode at most once and reuses free
// records before it grows, so a size past one record per inode is
// corrupt.
func (fs *FileSystem) readDir(p *sim.Proc, dirIno uint32) ([]byte, error) {
	f := *fs.openByIno(dirIno)
	size := f.Size(p)
	if size < 0 || uint64(size) > fs.maxIno()*dirEntSize {
		return nil, &CorruptError{Ino: dirIno, What: "directory size", Value: uint64(size)}
	}
	if int64(cap(fs.dirBuf)) < size {
		// Grown geometrically: a directory filled an entry at a time would
		// otherwise re-allocate its whole size at every entry.
		fs.dirBuf = make([]byte, size, max(size, 2*int64(cap(fs.dirBuf))))
	}
	raw := fs.dirBuf[:size]
	if _, err := f.ReadAt(p, raw, 0); err != nil {
		return nil, err
	}
	return raw[:size-size%dirEntSize], nil
}

// dirLookup finds name in the directory, returning its entry index and
// inode, which it checks names an inode of the file system.
func (fs *FileSystem) dirLookup(p *sim.Proc, dirIno uint32, name string) (idx int, ino uint32, err error) {
	raw, err := fs.readDir(p, dirIno)
	if err != nil {
		return 0, 0, err
	}
	for off := 0; off < len(raw); off += dirEntSize {
		rec := raw[off : off+dirEntSize]
		if ino := entIno(rec); ino != 0 && string(entName(rec)) == name {
			if uint64(ino) >= fs.maxIno() {
				return 0, 0, &CorruptError{Ino: dirIno, What: "directory entry's inode", Value: uint64(ino)}
			}
			return off / dirEntSize, ino, nil
		}
	}
	return 0, 0, ErrNotFound
}

// dirAdd inserts an entry, reusing a free slot if available.
func (fs *FileSystem) dirAdd(p *sim.Proc, dirIno uint32, name string, ino uint32, ftype uint8) error {
	if len(name) == 0 || len(name) > maxNameLen || strings.Contains(name, "/") {
		return ErrNameTooLong
	}
	raw, err := fs.readDir(p, dirIno)
	if err != nil {
		return err
	}
	slot := len(raw)
	for off := 0; off < len(raw); off += dirEntSize {
		if entIno(raw[off:]) == 0 {
			slot = off
			break
		}
	}
	var rec [dirEntSize]byte
	putDirEnt(rec[:], ino, ftype, name)
	f := *fs.openByIno(dirIno)
	_, err = f.WriteAt(p, rec[:], int64(slot))
	return err
}

// dirRemove clears the entry for name.
func (fs *FileSystem) dirRemove(p *sim.Proc, dirIno uint32, name string) error {
	idx, _, err := fs.dirLookup(p, dirIno, name)
	if err != nil {
		return err
	}
	var rec [dirEntSize]byte // ino 0 = free slot
	f := *fs.openByIno(dirIno)
	_, err = f.WriteAt(p, rec[:], int64(idx)*dirEntSize)
	return err
}

// splitPath splits "/a/b/c" into components. An empty or "/" path yields
// nil (the root itself).
func splitPath(path string) []string {
	var out []string
	for _, part := range strings.Split(path, "/") {
		if part != "" && part != "." {
			out = append(out, part)
		}
	}
	return out
}

// namei resolves a path to an inode number.
func (fs *FileSystem) namei(p *sim.Proc, path string) (uint32, error) {
	cur := uint32(RootIno)
	for _, part := range splitPath(path) {
		in := fs.getInode(p, cur)
		if in.Mode != ModeDir {
			return 0, ErrNotDir
		}
		_, next, err := fs.dirLookup(p, cur, part)
		if err != nil {
			return 0, err
		}
		cur = next
	}
	return cur, nil
}

// nameiParent resolves the directory containing the path's final component.
func (fs *FileSystem) nameiParent(p *sim.Proc, path string) (parent uint32, name string, err error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return 0, "", ErrExists // the root itself
	}
	name = parts[len(parts)-1]
	cur := uint32(RootIno)
	for _, part := range parts[:len(parts)-1] {
		in := fs.getInode(p, cur)
		if in.Mode != ModeDir {
			return 0, "", ErrNotDir
		}
		_, next, err := fs.dirLookup(p, cur, part)
		if err != nil {
			return 0, "", err
		}
		cur = next
	}
	return cur, name, nil
}

// Open returns a handle on an existing file.
func (fs *FileSystem) Open(p *sim.Proc, path string) (*File, error) {
	ino, err := fs.namei(p, path)
	if err != nil {
		return nil, err
	}
	if fs.getInode(p, ino).Mode == ModeDir {
		return nil, ErrIsDir
	}
	return fs.openByIno(ino), nil
}

// Create makes a new empty file. The inode is placed in the parent
// directory's group when possible, as FFS does.
func (fs *FileSystem) Create(p *sim.Proc, path string) (*File, error) {
	parent, name, err := fs.nameiParent(p, path)
	if err != nil {
		return nil, err
	}
	if _, _, err := fs.dirLookup(p, parent, name); err == nil {
		return nil, ErrExists
	}
	ino, err := fs.allocInode(p, int(parent/fs.sb.InodesPerGroup), ModeFile)
	if err != nil {
		return nil, err
	}
	if err := fs.dirAdd(p, parent, name, ino, ModeFile); err != nil {
		fs.freeInode(p, ino)
		return nil, err
	}
	return fs.openByIno(ino), nil
}

// Mkdir creates a directory. New directories spread across groups to
// balance allocation, following the FFS heuristic of placing directories in
// emptier groups — approximated here by round-robin on the name hash.
func (fs *FileSystem) Mkdir(p *sim.Proc, path string) error {
	parent, name, err := fs.nameiParent(p, path)
	if err != nil {
		return err
	}
	if _, _, err := fs.dirLookup(p, parent, name); err == nil {
		return ErrExists
	}
	near := 0
	for _, c := range name {
		near = (near + int(c)) % int(fs.sb.NGroups)
	}
	ino, err := fs.allocInode(p, near, ModeDir)
	if err != nil {
		return err
	}
	if err := fs.dirAdd(p, parent, name, ino, ModeDir); err != nil {
		fs.freeInode(p, ino)
		return err
	}
	return nil
}

// MkdirAll creates a directory and any missing parents.
func (fs *FileSystem) MkdirAll(p *sim.Proc, path string) error {
	parts := splitPath(path)
	cur := ""
	for _, part := range parts {
		cur += "/" + part
		if err := fs.Mkdir(p, cur); err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	return nil
}

// Unlink removes a file, releasing its blocks and inode. Directories must
// be empty. A file whose blocks cannot all be freed (a pointer past the
// device, to a free block, or named twice) is refused with a
// *CorruptError and left as it was.
func (fs *FileSystem) Unlink(p *sim.Proc, path string) error {
	parent, name, err := fs.nameiParent(p, path)
	if err != nil {
		return err
	}
	_, ino, err := fs.dirLookup(p, parent, name)
	if err != nil {
		return err
	}
	in := fs.getInode(p, ino)
	if in.Mode == ModeDir {
		raw, err := fs.readDir(p, ino)
		if err != nil {
			return err
		}
		for off := 0; off < len(raw); off += dirEntSize {
			if entIno(raw[off:]) != 0 {
				return ErrExists // directory not empty
			}
		}
	}
	if in.NLink == 1 {
		// The last link goes: refuse a block tree the truncate below could
		// not free before anything changes.
		if err := fs.checkTree(p, ino); err != nil {
			return err
		}
	}
	if err := fs.dirRemove(p, parent, name); err != nil {
		return err
	}
	in.NLink--
	if in.NLink == 0 {
		fs.truncateToZero(p, ino)
		fs.freeInode(p, ino)
	} else {
		fs.markInodeDirty(ino)
	}
	return nil
}

// ReadDir lists a directory.
func (fs *FileSystem) ReadDir(p *sim.Proc, path string) ([]DirEntry, error) {
	ino, err := fs.namei(p, path)
	if err != nil {
		return nil, err
	}
	if fs.getInode(p, ino).Mode != ModeDir {
		return nil, ErrNotDir
	}
	raw, err := fs.readDir(p, ino)
	if err != nil {
		return nil, err
	}
	var out []DirEntry
	for off := 0; off < len(raw); off += dirEntSize {
		rec := raw[off : off+dirEntSize]
		if ino := entIno(rec); ino != 0 {
			out = append(out, DirEntry{Name: string(entName(rec)), Ino: ino, IsDir: rec[4] == ModeDir})
		}
	}
	return out, nil
}

// Stat describes a file for applications.
type Stat struct {
	Ino    uint32
	Size   int64
	IsDir  bool
	Blocks int64
}

// Stat returns file metadata.
func (fs *FileSystem) Stat(p *sim.Proc, path string) (Stat, error) {
	ino, err := fs.namei(p, path)
	if err != nil {
		return Stat{}, err
	}
	in := fs.getInode(p, ino)
	return Stat{Ino: ino, Size: in.Size, IsDir: in.Mode == ModeDir, Blocks: in.Blocks()}, nil
}
