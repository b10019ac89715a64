package ufs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Format constants. The 8 KB block matches the FFS configuration the paper
// used; 16 sectors of 512 bytes make one block.
const (
	BlockSize       = 8192
	SectorsPerBlock = BlockSize / 512

	InodeSize      = 128
	InodesPerBlock = BlockSize / InodeSize // 64

	Magic   = 0x434d4653 // "CMFS"
	Version = 1

	// RootIno is the inode number of the root directory. Inode 0 is
	// reserved so that 0 can mean "no inode".
	RootIno = 1
)

// Inode modes.
const (
	ModeFree = 0
	ModeFile = 1
	ModeDir  = 2
)

// NDirect is the number of direct block pointers per inode.
const NDirect = 12

// PtrsPerBlock is the number of block pointers in an indirect block.
const PtrsPerBlock = BlockSize / 4 // 2048

// MaxFileBlocks is the largest file the format supports, in blocks.
const MaxFileBlocks = NDirect + PtrsPerBlock + PtrsPerBlock*PtrsPerBlock

// Options configures mkfs. The MaxContig/RotDelay pair models the tunefs
// parameters the paper adjusted: with RotDelay 0 the allocator lays blocks
// out back-to-back without limit (the paper's "as contiguously as
// possible"); with RotDelay > 0 it inserts that many spare blocks after
// every MaxContig allocated ones, the historical FFS behaviour that
// fragments sequential files.
type Options struct {
	BlocksPerGroup  int // default 2048 (16 MB groups)
	InodeBlocksPerG int // default 4 (256 inodes per group)
	MaxContig       int // default 32 (256 KB clusters)
	RotDelay        int // default 0
	CacheBlocks     int // buffer cache capacity; default 256 (2 MB)
	ReadAheadBlocks int // sequential read-ahead window; default 8 (64 KB)
}

func (o *Options) fillDefaults() {
	if o.BlocksPerGroup == 0 {
		o.BlocksPerGroup = 2048
	}
	if o.InodeBlocksPerG == 0 {
		o.InodeBlocksPerG = 4
	}
	if o.MaxContig == 0 {
		o.MaxContig = 32
	}
	if o.CacheBlocks == 0 {
		o.CacheBlocks = 256
	}
	if o.ReadAheadBlocks == 0 {
		o.ReadAheadBlocks = 8
	}
}

// Super is the superblock, stored in disk block 0.
type Super struct {
	Magic           uint32
	Version         uint32
	NBlocks         uint32 // total FS blocks on the disk (including block 0)
	BlocksPerGroup  uint32
	NGroups         uint32
	InodeBlocksPerG uint32
	InodesPerGroup  uint32
	MaxContig       uint32
	RotDelay        uint32
}

func (s *Super) encode(buf []byte) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], s.Magic)
	le.PutUint32(buf[4:], s.Version)
	le.PutUint32(buf[8:], s.NBlocks)
	le.PutUint32(buf[12:], s.BlocksPerGroup)
	le.PutUint32(buf[16:], s.NGroups)
	le.PutUint32(buf[20:], s.InodeBlocksPerG)
	le.PutUint32(buf[24:], s.InodesPerGroup)
	le.PutUint32(buf[28:], s.MaxContig)
	le.PutUint32(buf[32:], s.RotDelay)
}

func (s *Super) decode(buf []byte) error {
	le := binary.LittleEndian
	s.Magic = le.Uint32(buf[0:])
	s.Version = le.Uint32(buf[4:])
	s.NBlocks = le.Uint32(buf[8:])
	s.BlocksPerGroup = le.Uint32(buf[12:])
	s.NGroups = le.Uint32(buf[16:])
	s.InodeBlocksPerG = le.Uint32(buf[20:])
	s.InodesPerGroup = le.Uint32(buf[24:])
	s.MaxContig = le.Uint32(buf[28:])
	s.RotDelay = le.Uint32(buf[32:])
	if s.Magic != Magic {
		return fmt.Errorf("ufs: bad magic %#x", s.Magic)
	}
	if s.Version != Version {
		return fmt.Errorf("ufs: unsupported version %d", s.Version)
	}
	return nil
}

// ErrBadGeometry is what every *GeometryError matches under errors.Is.
var ErrBadGeometry = errors.New("ufs: geometry the file system cannot serve")

// GeometryError is Mount's refusal of a superblock or device whose
// geometry the file system cannot serve: Field holds Value, which breaks
// the rule Why states.
type GeometryError struct {
	Field string
	Value uint64
	Why   string
}

func (e *GeometryError) Error() string {
	return fmt.Sprintf("ufs: geometry %s = %d: %s", e.Field, e.Value, e.Why)
}

// Unwrap returns ErrBadGeometry.
func (e *GeometryError) Unwrap() error { return ErrBadGeometry }

// validate checks the geometry the file system divides by and lays out
// from, against a device of totalSectors sectors: the divisors are
// non-zero, a group holds its header, inode blocks and some data, the
// group header holds both bitmaps, the groups fit NBlocks (as Format lays
// them out, the last one possibly short) and NBlocks fits the device.
func (s *Super) validate(totalSectors int64) error {
	bad := func(field string, v uint32, why string) error {
		return &GeometryError{Field: field, Value: uint64(v), Why: why}
	}
	switch {
	case s.BlocksPerGroup == 0:
		return bad("BlocksPerGroup", s.BlocksPerGroup, "must be non-zero")
	case s.InodesPerGroup == 0:
		return bad("InodesPerGroup", s.InodesPerGroup, "must be non-zero")
	case s.RotDelay > 0 && s.MaxContig == 0:
		return bad("MaxContig", s.MaxContig, "must be non-zero when RotDelay is set")
	case uint64(s.InodesPerGroup) > uint64(s.InodeBlocksPerG)*InodesPerBlock:
		return bad("InodesPerGroup", s.InodesPerGroup, fmt.Sprintf("exceeds the %d inode blocks per group", s.InodeBlocksPerG))
	case uint64(s.InodeBlocksPerG)+2 > uint64(s.BlocksPerGroup):
		return bad("InodeBlocksPerG", s.InodeBlocksPerG, fmt.Sprintf("leaves no data block in a group of %d", s.BlocksPerGroup))
	case 8+(uint64(s.InodesPerGroup)+7)/8+(uint64(s.BlocksPerGroup)+7)/8 > BlockSize:
		return bad("BlocksPerGroup", s.BlocksPerGroup, "bitmaps overflow the group header block")
	case s.NGroups == 0:
		return bad("NGroups", s.NGroups, "must be non-zero")
	case 1+uint64(s.NGroups-1)*uint64(s.BlocksPerGroup)+uint64(s.InodeBlocksPerG)+2 > uint64(s.NBlocks):
		return bad("NGroups", s.NGroups, fmt.Sprintf("groups of %d blocks do not fit %d blocks", s.BlocksPerGroup, s.NBlocks))
	case uint64(s.NBlocks)*SectorsPerBlock > uint64(totalSectors):
		return bad("NBlocks", s.NBlocks, fmt.Sprintf("exceeds the device's %d blocks", totalSectors/SectorsPerBlock))
	}
	return nil
}

// Inode is the in-memory form of an on-disk inode.
type Inode struct {
	Mode      uint16
	NLink     uint16
	Size      int64
	MTime     int64 // virtual nanoseconds
	Direct    [NDirect]uint32
	Indirect  uint32
	DIndirect uint32
}

func (in *Inode) encode(buf []byte) {
	le := binary.LittleEndian
	le.PutUint16(buf[0:], in.Mode)
	le.PutUint16(buf[2:], in.NLink)
	le.PutUint64(buf[8:], uint64(in.Size))
	le.PutUint64(buf[16:], uint64(in.MTime))
	for i, d := range in.Direct {
		le.PutUint32(buf[24+4*i:], d)
	}
	le.PutUint32(buf[24+4*NDirect:], in.Indirect)
	le.PutUint32(buf[28+4*NDirect:], in.DIndirect)
}

func (in *Inode) decode(buf []byte) {
	le := binary.LittleEndian
	in.Mode = le.Uint16(buf[0:])
	in.NLink = le.Uint16(buf[2:])
	in.Size = int64(le.Uint64(buf[8:]))
	in.MTime = int64(le.Uint64(buf[16:]))
	for i := range in.Direct {
		in.Direct[i] = le.Uint32(buf[24+4*i:])
	}
	in.Indirect = le.Uint32(buf[24+4*NDirect:])
	in.DIndirect = le.Uint32(buf[28+4*NDirect:])
}

// Blocks returns the file size in blocks, rounded up.
func (in *Inode) Blocks() int64 { return (in.Size + BlockSize - 1) / BlockSize }

// group describes one cylinder group's location and bitmap state.
// The header block layout is: [freeBlocks u32][freeInodes u32]
// [inode bitmap][block bitmap].
type group struct {
	index      int
	start      uint32 // first block of the group (the header block)
	nblocks    uint32 // blocks in this group (may be short in the last group)
	freeBlocks uint32
	freeInodes uint32
	inodeBmp   []byte
	blockBmp   []byte
	dirty      bool
}

func (g *group) dataStart(sb *Super) uint32 {
	return g.start + 1 + sb.InodeBlocksPerG
}

func (g *group) encode(buf []byte, sb *Super) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], g.freeBlocks)
	le.PutUint32(buf[4:], g.freeInodes)
	off := 8
	copy(buf[off:], g.inodeBmp)
	off += len(g.inodeBmp)
	copy(buf[off:], g.blockBmp)
}

func (g *group) decode(buf []byte, sb *Super) {
	le := binary.LittleEndian
	g.freeBlocks = le.Uint32(buf[0:])
	g.freeInodes = le.Uint32(buf[4:])
	off := 8
	inodeBmpLen := (int(sb.InodesPerGroup) + 7) / 8
	blockBmpLen := (int(sb.BlocksPerGroup) + 7) / 8
	g.inodeBmp = append([]byte(nil), buf[off:off+inodeBmpLen]...)
	off += inodeBmpLen
	g.blockBmp = append([]byte(nil), buf[off:off+blockBmpLen]...)
}

func bmpGet(bmp []byte, i int) bool { return bmp[i/8]&(1<<(i%8)) != 0 }
func bmpSet(bmp []byte, i int)      { bmp[i/8] |= 1 << (i % 8) }
func bmpClear(bmp []byte, i int)    { bmp[i/8] &^= 1 << (i % 8) }

// bmpFindClear returns the first clear bit of bmp in [from, to), or -1.
// Bit i is bit i%8 of byte i/8, so a little-endian word of 8 bytes holds
// bits in index order: the scan tests whole words where it can, then
// whole bytes, and single bits only at the range's ragged ends.
func bmpFindClear(bmp []byte, from, to int) int {
	for i := from; i < to; {
		switch {
		case i%64 == 0 && i+64 <= to:
			if w := binary.LittleEndian.Uint64(bmp[i/8:]); w != ^uint64(0) {
				return i + bits.TrailingZeros64(^w)
			}
			i += 64
		case i%8 == 0 && i+8 <= to:
			if b := bmp[i/8]; b != 0xff {
				return i + bits.TrailingZeros8(^b)
			}
			i += 8
		default:
			if !bmpGet(bmp, i) {
				return i
			}
			i++
		}
	}
	return -1
}

// bmpClearRun returns how many bits of bmp from from on are clear, up to
// to: the length of the run of clear bits that starts at from. Like
// bmpFindClear it tests whole words where it can, then whole bytes.
func bmpClearRun(bmp []byte, from, to int) int {
	for i := from; i < to; {
		switch {
		case i%64 == 0 && i+64 <= to:
			if w := binary.LittleEndian.Uint64(bmp[i/8:]); w != 0 {
				return i + bits.TrailingZeros64(w) - from
			}
			i += 64
		case i%8 == 0 && i+8 <= to:
			if b := bmp[i/8]; b != 0 {
				return i + bits.TrailingZeros8(b) - from
			}
			i += 8
		default:
			if bmpGet(bmp, i) {
				return i - from
			}
			i++
		}
	}
	return max(to-from, 0)
}

// bmpSetRun sets the bits of bmp in [from, to), whole bytes where it can.
func bmpSetRun(bmp []byte, from, to int) {
	for i := from; i < to; {
		if i%8 == 0 && i+8 <= to {
			bmp[i/8] = 0xff
			i += 8
			continue
		}
		bmpSet(bmp, i)
		i++
	}
}

// ErrTooSmall is returned by Format when the disk cannot hold even one
// cylinder group.
var ErrTooSmall = errors.New("ufs: disk too small")

// Format writes a fresh file system onto the disk image offline (no disk
// timing), the way mkfs prepares a volume before it is ever mounted. It
// returns the resulting superblock.
func Format(d BlockDevice, opts Options) (*Super, error) {
	opts.fillDefaults()
	nblocks := uint32(d.Geometry().TotalSectors() / SectorsPerBlock)
	if int(nblocks) < opts.BlocksPerGroup+1 {
		return nil, ErrTooSmall
	}
	bpg := uint32(opts.BlocksPerGroup)
	ngroups := (nblocks - 1) / bpg // block 0 is the superblock
	if (nblocks-1)%bpg >= uint32(opts.InodeBlocksPerG+2) {
		ngroups++ // partial last group, if it can hold metadata plus data
	}
	sb := &Super{
		Magic:           Magic,
		Version:         Version,
		NBlocks:         nblocks,
		BlocksPerGroup:  bpg,
		NGroups:         ngroups,
		InodeBlocksPerG: uint32(opts.InodeBlocksPerG),
		InodesPerGroup:  uint32(opts.InodeBlocksPerG * InodesPerBlock),
		MaxContig:       uint32(opts.MaxContig),
		RotDelay:        uint32(opts.RotDelay),
	}
	if err := sb.validate(d.Geometry().TotalSectors()); err != nil {
		return nil, err // options Mount would refuse
	}

	// Superblock.
	buf := make([]byte, BlockSize)
	sb.encode(buf)
	pokeBlock(d, 0, buf)

	// Cylinder groups. The device copies what it is poked with, so one
	// header block and one zero block serve every group.
	hdr := make([]byte, BlockSize)
	zero := make([]byte, BlockSize)
	for gi := uint32(0); gi < ngroups; gi++ {
		g := newEmptyGroup(sb, int(gi))
		// Metadata blocks (header + inode blocks) are in use.
		for b := uint32(0); b < 1+sb.InodeBlocksPerG; b++ {
			bmpSet(g.blockBmp, int(b))
			g.freeBlocks--
		}
		// In group 0, reserve inode 0 so it is never allocated.
		if gi == 0 {
			bmpSet(g.inodeBmp, 0)
			g.freeInodes--
		}
		clear(hdr)
		g.encode(hdr, sb)
		pokeBlock(d, int64(g.start), hdr)
		// Zero the inode blocks, unless no sector of them holds a payload:
		// zeros over blank sectors store nothing, so a fresh device skips
		// the writes and a used one still loses its stale inodes.
		tbl := int64(g.start+1) * SectorsPerBlock
		if !d.FillSectors(tbl, int(sb.InodeBlocksPerG)*SectorsPerBlock, nil) {
			for b := uint32(0); b < sb.InodeBlocksPerG; b++ {
				pokeBlock(d, int64(g.start+1+b), zero)
			}
		}
	}

	// Root directory: inode RootIno in group 0, initially empty.
	if err := writeRoot(d, sb); err != nil {
		return nil, err
	}
	return sb, nil
}

// newEmptyGroup builds the in-memory state of a freshly formatted group.
func newEmptyGroup(sb *Super, gi int) *group {
	start := uint32(1) + uint32(gi)*sb.BlocksPerGroup
	n := sb.BlocksPerGroup
	if start+n > sb.NBlocks {
		n = sb.NBlocks - start
	}
	g := &group{
		index:      gi,
		start:      start,
		nblocks:    n,
		freeBlocks: n,
		freeInodes: sb.InodesPerGroup,
		inodeBmp:   make([]byte, (int(sb.InodesPerGroup)+7)/8),
		blockBmp:   make([]byte, (int(sb.BlocksPerGroup)+7)/8),
	}
	// Blocks beyond the (possibly short) group are unusable.
	for b := n; b < sb.BlocksPerGroup; b++ {
		bmpSet(g.blockBmp, int(b))
	}
	return g
}

// writeRoot writes the root inode into group 0's first inode block and marks
// it allocated. Separated from the main loop for clarity since group 0 is
// the only group with live contents at format time.
func writeRoot(d BlockDevice, sb *Super) error {
	g := loadGroupOffline(d, sb, 0)
	bmpSet(g.inodeBmp, RootIno)
	g.freeInodes--
	hdr := make([]byte, BlockSize)
	g.encode(hdr, sb)
	pokeBlock(d, int64(g.start), hdr)

	ib := make([]byte, BlockSize)
	root := Inode{Mode: ModeDir, NLink: 1}
	root.encode(ib[RootIno*InodeSize:])
	pokeBlock(d, int64(g.start+1), ib)
	return nil
}

func loadGroupOffline(d BlockDevice, sb *Super, gi int) *group {
	g := newEmptyGroup(sb, gi)
	buf := peekBlock(d, int64(g.start))
	g.decode(buf, sb)
	g.index = gi
	return g
}

func pokeBlock(d BlockDevice, blk int64, data []byte) {
	d.PokeSectors(blk*SectorsPerBlock, data)
}

func peekBlock(d BlockDevice, blk int64) []byte {
	out := make([]byte, BlockSize)
	d.PeekSectors(blk*SectorsPerBlock, out)
	return out
}
