package ufs

import (
	"fmt"
	"time"

	"repro/internal/rtm"
	"repro/internal/sim"
)

// CPU cost model for the Unix server, scaled to the paper's 100 MHz
// Pentium: a fixed per-call overhead (trap, VFS dispatch, reply) and a
// per-block cost (copyout of 8 KB plus buffer bookkeeping).
const (
	CostSyscall  = 150 * time.Microsecond
	CostPerBlock = 150 * time.Microsecond
)

// Server is the single-threaded Unix file server (the paper's Lites
// server). All application file access funnels through its one request
// port, which is what makes the Unix path vulnerable to priority inversion:
// a high-priority client's request can sit behind a low-priority client's
// request that is already occupying the server and the disk.
type Server struct {
	fs   *FileSystem
	port *rtm.Port
	th   *rtm.Thread

	fds    map[int]*File
	nextFd int

	// Requests served, for experiment accounting.
	Calls int64
}

type (
	openReq   struct{ path string }
	createReq struct{ path string }
	mkdirReq  struct{ path string }
	readReq   struct {
		fd  int
		off int64
		n   int
		buf []byte // n bytes of the caller's, filled in place (read(2)'s copyout); nil discards them
	}
	writeReq struct {
		fd   int
		off  int64
		data []byte
	}
	preallocReq struct {
		fd   int
		size int64
	}
	blockMapReq struct {
		fd  int
		buf []uint32 // the caller's buffer, filled in place when large enough
	}
	statReq    struct{ path string }
	unlinkReq  struct{ path string }
	readDirReq struct{ path string }
	closeReq   struct{ fd int }
	syncReq    struct{}

	fdResp struct {
		fd  int
		err error
	}
	ioResp struct { // replies to reads and writes
		n   int
		err error
	}
	blockMapResp struct {
		blocks []uint32
		size   int64
		err    error
	}
	statResp struct {
		st  Stat
		err error
	}
	readDirResp struct {
		ents []DirEntry
		err  error
	}
	errResp struct{ err error }
)

// NewServer starts the Unix server thread at the given priority (typically
// rtm.PrioTS) and returns its handle.
func NewServer(k *rtm.Kernel, fs *FileSystem, prio int, quantum sim.Time) *Server {
	s := &Server{fs: fs, port: k.NewPort("unix-server"), fds: make(map[int]*File), nextFd: 3}
	s.th = k.NewThread("unix-server", prio, quantum, s.loop)
	return s
}

// Port returns the server's request port.
func (s *Server) Port() *rtm.Port { return s.port }

// Thread returns the server thread.
func (s *Server) Thread() *rtm.Thread { return s.th }

// FS returns the served file system (for out-of-band inspection in tests).
func (s *Server) FS() *FileSystem { return s.fs }

func (s *Server) loop(t *rtm.Thread) {
	for {
		req, reply := s.port.ReceiveCall(t)
		s.Calls++
		t.Compute(CostSyscall)
		reply(s.handle(t, req))
	}
}

func (s *Server) file(fd int) (*File, error) {
	f, ok := s.fds[fd]
	if !ok {
		return nil, fmt.Errorf("ufs: bad file descriptor %d", fd)
	}
	return f, nil
}

func (s *Server) handle(t *rtm.Thread, req any) any {
	p := t.Proc()
	switch r := req.(type) {
	case openReq:
		f, err := s.fs.Open(p, r.path)
		if err != nil {
			return fdResp{err: err}
		}
		fd := s.nextFd
		s.nextFd++
		s.fds[fd] = f
		return fdResp{fd: fd}
	case createReq:
		f, err := s.fs.Create(p, r.path)
		if err != nil {
			return fdResp{err: err}
		}
		fd := s.nextFd
		s.nextFd++
		s.fds[fd] = f
		return fdResp{fd: fd}
	case mkdirReq:
		return errResp{err: s.fs.Mkdir(p, r.path)}
	case readReq:
		f, err := s.file(r.fd)
		if err != nil {
			return ioResp{err: err}
		}
		n, err := f.read(p, r.buf, r.off, r.n)
		t.Compute(CostPerBlock * sim.Time(1+(n-1)/BlockSize))
		return ioResp{n: n, err: err}
	case writeReq:
		f, err := s.file(r.fd)
		if err != nil {
			return ioResp{err: err}
		}
		t.Compute(CostPerBlock * sim.Time(1+(len(r.data)-1)/BlockSize))
		n, err := f.WriteAt(p, r.data, r.off)
		return ioResp{n: n, err: err}
	case preallocReq:
		f, err := s.file(r.fd)
		if err != nil {
			return errResp{err: err}
		}
		return errResp{err: f.Preallocate(p, r.size)}
	case blockMapReq:
		f, err := s.file(r.fd)
		if err != nil {
			return blockMapResp{err: err}
		}
		blocks, err := f.BlockMap(p, r.buf)
		return blockMapResp{blocks: blocks, size: f.Size(p), err: err}
	case statReq:
		st, err := s.fs.Stat(p, r.path)
		return statResp{st: st, err: err}
	case unlinkReq:
		return errResp{err: s.fs.Unlink(p, r.path)}
	case readDirReq:
		ents, err := s.fs.ReadDir(p, r.path)
		return readDirResp{ents: ents, err: err}
	case closeReq:
		delete(s.fds, r.fd)
		return errResp{}
	case syncReq:
		s.fs.Sync(p)
		return errResp{}
	}
	return errResp{err: fmt.Errorf("ufs: unknown request %T", req)}
}

// Client is a thread-side stub for calling the Unix server.
type Client struct {
	srv *Server
	th  *rtm.Thread
}

// NewClient binds a calling thread to a server.
func NewClient(srv *Server, th *rtm.Thread) *Client { return &Client{srv: srv, th: th} }

// Open opens an existing file and returns its descriptor.
func (c *Client) Open(path string) (int, error) {
	r := c.srv.port.Call(c.th, openReq{path: path}).(fdResp)
	return r.fd, r.err
}

// Create makes a new file and returns its descriptor.
func (c *Client) Create(path string) (int, error) {
	r := c.srv.port.Call(c.th, createReq{path: path}).(fdResp)
	return r.fd, r.err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	return c.srv.port.Call(c.th, mkdirReq{path: path}).(errResp).err
}

// ReadAt reads up to len(buf) bytes at off from an open file into buf and
// returns the count, short at end of file. The server fills buf in place,
// as read(2) copies out into the caller's buffer, so a caller that reuses
// one buffer reads without allocating.
func (c *Client) ReadAt(fd int, buf []byte, off int64) (int, error) {
	r := c.srv.port.Call(c.th, readReq{fd: fd, off: off, n: len(buf), buf: buf}).(ioResp)
	return r.n, r.err
}

// Discard reads up to n bytes at off from an open file and drops them,
// returning the count ReadAt would: the server does every lookup, cache
// and disk step of the read and charges the same CPU, but copies nothing
// (File.Discard). It is the read of a caller that never looks at the
// data, like cat > /dev/null.
func (c *Client) Discard(fd int, off int64, n int) (int, error) {
	r := c.srv.port.Call(c.th, readReq{fd: fd, off: off, n: n}).(ioResp)
	return r.n, r.err
}

// Read reads up to n bytes at off from an open file into a new buffer.
func (c *Client) Read(fd int, off int64, n int) ([]byte, error) {
	buf := make([]byte, n)
	got, err := c.ReadAt(fd, buf, off)
	return buf[:got], err
}

// Write writes data at off.
func (c *Client) Write(fd int, off int64, data []byte) (int, error) {
	r := c.srv.port.Call(c.th, writeReq{fd: fd, off: off, data: data}).(ioResp)
	return r.n, r.err
}

// Preallocate extends a file with placed but unwritten blocks.
func (c *Client) Preallocate(fd int, size int64) error {
	return c.srv.port.Call(c.th, preallocReq{fd: fd, size: size}).(errResp).err
}

// BlockMapInto returns the file's physical block map and size. The server
// fills buf's backing array in place when it is large enough, as ReadAt
// fills its buffer, so a caller that reuses one buffer maps files without
// allocating.
func (c *Client) BlockMapInto(fd int, buf []uint32) ([]uint32, int64, error) {
	r := c.srv.port.Call(c.th, blockMapReq{fd: fd, buf: buf}).(blockMapResp)
	return r.blocks, r.size, r.err
}

// BlockMap returns the file's physical block map, in a new slice, and size.
func (c *Client) BlockMap(fd int) ([]uint32, int64, error) { return c.BlockMapInto(fd, nil) }

// Stat returns file metadata.
func (c *Client) Stat(path string) (Stat, error) {
	r := c.srv.port.Call(c.th, statReq{path: path}).(statResp)
	return r.st, r.err
}

// Unlink removes a file.
func (c *Client) Unlink(path string) error {
	return c.srv.port.Call(c.th, unlinkReq{path: path}).(errResp).err
}

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) ([]DirEntry, error) {
	r := c.srv.port.Call(c.th, readDirReq{path: path}).(readDirResp)
	return r.ents, r.err
}

// Close releases a descriptor.
func (c *Client) Close(fd int) error {
	return c.srv.port.Call(c.th, closeReq{fd: fd}).(errResp).err
}

// Sync flushes all dirty state to disk.
func (c *Client) Sync() error {
	return c.srv.port.Call(c.th, syncReq{}).(errResp).err
}
