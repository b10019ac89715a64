package core

import (
	"fmt"

	"repro/internal/rtm"
	"repro/internal/ufs"
)

// Resolver provides the non-real-time file system services CRAS needs at
// open time: turning a path into the physical block map it will read raw,
// and (for recording) creating a fully preallocated file. Abstracting this
// is what enables the paper's Figure 5 configurations: the typical setup
// resolves through the Unix server, the RTS/embedded setups resolve against
// a file system linked directly into the same task, with no Unix server on
// the machine at all.
type Resolver interface {
	// ResolvePlayback returns the block map and byte size of an existing
	// media file. Both methods fill buf's backing array with the map when
	// it is large enough, so a caller that reuses one buffer resolves
	// without allocating; the caller owns the result.
	ResolvePlayback(th *rtm.Thread, path string, buf []uint32) (blocks []uint32, size int64, err error)
	// ResolveRecord creates the media file, preallocates size bytes of
	// placed blocks, and returns the resulting block map.
	ResolveRecord(th *rtm.Thread, path string, size int64, buf []uint32) (blocks []uint32, gotSize int64, err error)
}

// unixResolver resolves through the Unix server's RPC interface — the
// paper's standard configuration (Figure 5, left).
type unixResolver struct {
	srv *ufs.Server
}

// UnixResolver returns a Resolver backed by the Unix server.
func UnixResolver(srv *ufs.Server) Resolver { return unixResolver{srv: srv} }

func (r unixResolver) ResolvePlayback(th *rtm.Thread, path string, buf []uint32) ([]uint32, int64, error) {
	c := ufs.NewClient(r.srv, th)
	fd, err := c.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer c.Close(fd) //crasvet:allow ioerrcheck -- read-only fd; close cannot lose data
	return c.BlockMapInto(fd, buf)
}

func (r unixResolver) ResolveRecord(th *rtm.Thread, path string, size int64, buf []uint32) (blocks []uint32, frag int64, err error) {
	c := ufs.NewClient(r.srv, th)
	fd, err := c.Create(path)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		// The fd was written through Create/Preallocate; a close failure
		// must surface or the caller records a layout the disk never got.
		if cerr := c.Close(fd); cerr != nil && err == nil {
			blocks, frag, err = nil, 0, cerr
		}
	}()
	if err := c.Preallocate(fd, size); err != nil {
		return nil, 0, err
	}
	return c.BlockMapInto(fd, buf)
}

// directResolver resolves against a file system in the same task — the
// paper's embedded configurations (Figure 5, middle and right), where CRAS
// runs with RTS or linked into the application and no Unix server exists.
// The calling thread performs the metadata I/O itself.
type directResolver struct {
	fs *ufs.FileSystem
}

// DirectResolver returns a Resolver that reads the file system directly.
func DirectResolver(fs *ufs.FileSystem) Resolver { return directResolver{fs: fs} }

func (r directResolver) ResolvePlayback(th *rtm.Thread, path string, buf []uint32) ([]uint32, int64, error) {
	p := th.Proc()
	f, err := r.fs.Open(p, path)
	if err != nil {
		return nil, 0, err
	}
	th.Compute(ufs.CostSyscall)
	blocks, err := f.BlockMap(p, buf)
	if err != nil {
		return nil, 0, err
	}
	return blocks, f.Size(p), nil
}

func (r directResolver) ResolveRecord(th *rtm.Thread, path string, size int64, buf []uint32) ([]uint32, int64, error) {
	p := th.Proc()
	f, err := r.fs.Create(p, path)
	if err != nil {
		return nil, 0, fmt.Errorf("cras: create %s: %w", path, err)
	}
	th.Compute(ufs.CostSyscall)
	if err := f.Preallocate(p, size); err != nil {
		return nil, 0, err
	}
	blocks, err := f.BlockMap(p, buf)
	if err != nil {
		return nil, 0, err
	}
	return blocks, f.Size(p), nil
}
