package media

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/ufs"
)

// Container is a QuickTime-style movie: one media file holding several
// tracks (video, audio, ...) plus an index the player reads first — the
// shape of the files the paper's QtPlay application plays. Each track
// occupies a contiguous region of the file, so every track individually
// satisfies CRAS's sequential-retrieval model; its chunk table simply
// starts at the region's base offset.
//
// Layout on disk:
//
//	<movie>       index atom, then each track's data region in order
//	              (the index is small and read through the Unix server
//	              at open time, like a control file)
type Container struct {
	Name   string
	Tracks []Track
}

// Track is one stream inside a container.
type Track struct {
	Kind string // "video", "audio", ...
	Info *StreamInfo
}

const containerMagic = 0x434d4d56 // "CMMV"

// indexSize returns the on-disk size of the index atom, rounded to a block
// so every track region starts block-aligned (CRAS reads raw blocks).
func (c *Container) indexSize() int64 {
	raw := int64(12) // magic, version, track count
	for _, tr := range c.Tracks {
		raw += 16 + 8 + int64(len(tr.Kind)) + 8 + 32*int64(len(tr.Info.Chunks))
	}
	return (raw + ufs.BlockSize - 1) / ufs.BlockSize * ufs.BlockSize
}

// Layout computes each track's base offset and returns per-track
// StreamInfos rebased to their region — the chunk tables a player hands to
// CRAS. The total size covers the index atom plus every region.
func (c *Container) Layout() (tracks []*StreamInfo, total int64, err error) {
	off := c.indexSize()
	for i, tr := range c.Tracks {
		if err := tr.Info.Validate(); err != nil {
			return nil, 0, fmt.Errorf("media: track %d: %w", i, err)
		}
		rebased := &StreamInfo{
			Name:   fmt.Sprintf("%s#%s", c.Name, tr.Kind),
			Chunks: make([]Chunk, len(tr.Info.Chunks)),
		}
		for j, ch := range tr.Info.Chunks {
			ch.Offset += off
			rebased.Chunks[j] = ch
		}
		tracks = append(tracks, rebased)
		regionEnd := off + tr.Info.TotalSize()
		// Block-align the next region.
		off = (regionEnd + ufs.BlockSize - 1) / ufs.BlockSize * ufs.BlockSize
	}
	return tracks, off, nil
}

// encodeIndex serializes the index atom (padded to the aligned size).
func (c *Container) encodeIndex() []byte { return c.appendIndex(nil) }

// appendIndex appends the index atom, padded with zeros to its aligned
// size, to dst and returns the extended slice; with a dst of enough
// capacity it allocates nothing. Each track's region base is the one
// Layout computes: the index size, then every region block-aligned.
func (c *Container) appendIndex(dst []byte) []byte {
	le := binary.LittleEndian
	size := c.indexSize()
	end := len(dst) + int(size)
	dst = slices.Grow(dst, int(size))
	dst = le.AppendUint32(dst, containerMagic)
	dst = le.AppendUint32(dst, 1)
	dst = le.AppendUint32(dst, uint32(len(c.Tracks)))
	base := size
	for _, tr := range c.Tracks {
		dst = le.AppendUint64(dst, uint64(tr.Info.Chunks[0].Offset+base)) // region base
		dst = le.AppendUint64(dst, uint64(tr.Info.TotalSize()))
		dst = le.AppendUint64(dst, uint64(len(tr.Kind)))
		dst = append(dst, tr.Kind...)
		dst = le.AppendUint64(dst, uint64(len(tr.Info.Chunks)))
		for _, ch := range tr.Info.Chunks {
			dst = le.AppendUint64(dst, uint64(ch.Timestamp))
			dst = le.AppendUint64(dst, uint64(ch.Duration))
			dst = le.AppendUint64(dst, uint64(ch.Size))
			dst = le.AppendUint64(dst, uint64(ch.Offset)) // track-relative
		}
		base = (base + tr.Info.TotalSize() + ufs.BlockSize - 1) / ufs.BlockSize * ufs.BlockSize
	}
	pad := len(dst)
	dst = dst[:end] // within the capacity grown above
	clear(dst[pad:])
	return dst
}

// DecodeContainerIndex parses an index atom back into rebased per-track
// chunk tables ready for crs_open.
func DecodeContainerIndex(name string, data []byte) ([]Track, error) {
	le := binary.LittleEndian
	if len(data) < 12 || le.Uint32(data[0:]) != containerMagic {
		return nil, fmt.Errorf("media: not a container index")
	}
	if le.Uint32(data[4:]) != 1 {
		return nil, fmt.Errorf("media: unsupported container version")
	}
	n := int(le.Uint32(data[8:]))
	pos := 12
	var tracks []Track
	for i := 0; i < n; i++ {
		if pos+32 > len(data) {
			return nil, fmt.Errorf("media: truncated container index")
		}
		base := int64(le.Uint64(data[pos:]))
		pos += 16 // base + region size
		// The lengths are checked as unsigned values against the bytes
		// that remain: a hostile length near 2^64 would turn negative as
		// an int and slip past a signed bound.
		kindLen := le.Uint64(data[pos:])
		pos += 8
		if kindLen > uint64(len(data)-pos-8) {
			return nil, fmt.Errorf("media: truncated track header")
		}
		kind := string(data[pos : pos+int(kindLen)])
		pos += int(kindLen)
		chunks := le.Uint64(data[pos:])
		pos += 8
		if chunks > uint64(len(data)-pos)/32 {
			return nil, fmt.Errorf("media: truncated chunk table for track %d", i)
		}
		info := &StreamInfo{Name: fmt.Sprintf("%s#%s", name, kind), Chunks: make([]Chunk, int(chunks))}
		for j := range info.Chunks {
			info.Chunks[j] = Chunk{
				Timestamp: sim.Time(le.Uint64(data[pos:])),
				Duration:  sim.Time(le.Uint64(data[pos+8:])),
				Size:      int64(le.Uint64(data[pos+16:])),
				Offset:    int64(le.Uint64(data[pos+24:])) + base,
			}
			pos += 32
		}
		tracks = append(tracks, Track{Kind: kind, Info: info})
	}
	return tracks, nil
}

// StoreContainer lays a container out on the file system: one preallocated
// media file whose first blocks hold the index atom. It returns the
// rebased per-track chunk tables.
func StoreContainer(p *sim.Proc, fs *ufs.FileSystem, path string, c *Container) ([]*StreamInfo, error) {
	return new(Storer).StoreContainer(p, fs, path, c)
}

// StoreContainer is the package StoreContainer, encoding the index atom
// into the Storer's buffer.
func (st *Storer) StoreContainer(p *sim.Proc, fs *ufs.FileSystem, path string, c *Container) ([]*StreamInfo, error) {
	tracks, total, err := c.Layout()
	if err != nil {
		return nil, err
	}
	f, err := fs.Create(p, path)
	if err != nil {
		return nil, err
	}
	st.buf = c.appendIndex(st.buf[:0])
	if _, err := f.WriteAt(p, st.buf, 0); err != nil {
		return nil, err
	}
	if err := f.Preallocate(p, total); err != nil {
		return nil, err
	}
	return tracks, nil
}

// LoadContainer reads a container's index through the Unix server and
// returns its tracks, rebased and ready to open on CRAS.
func LoadContainer(c *ufs.Client, path string) ([]Track, error) {
	fd, err := c.Open(path)
	if err != nil {
		return nil, err
	}
	defer c.Close(fd) //crasvet:allow ioerrcheck -- read-only fd; close cannot lose data
	// The index atom size is block-aligned; read the first block to learn
	// the track count, then enough blocks to cover the whole atom.
	head, err := c.Read(fd, 0, ufs.BlockSize)
	if err != nil {
		return nil, err
	}
	if tracks, err := DecodeContainerIndex(path, head); err == nil {
		return tracks, nil
	}
	// Index larger than one block: read generously (chunk tables are 32
	// bytes per chunk; 1 MB covers half an hour of 30 fps tracks).
	data, err := c.Read(fd, 0, 1<<20)
	if err != nil {
		return nil, err
	}
	return DecodeContainerIndex(path, data)
}
