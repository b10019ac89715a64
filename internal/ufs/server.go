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
// request that is already occupying the server and the disk. The port is
// unbounded: a file call waits out any backlog rather than being turned
// away.
type Server struct {
	fs   *FileSystem
	port *rtm.RPC[request, reply]
	th   *rtm.Thread

	fds    map[int]*File
	nextFd int

	// Requests served, for experiment accounting.
	Calls int64
}

// op names a Unix-server request.
type op int

const (
	opOpen op = iota
	opCreate
	opMkdir
	opRead
	opWrite
	opPrealloc
	opBlockMap
	opStat
	opUnlink
	opReadDir
	opClose
	opSync
)

type (
	// request is every Unix-server call: op says which, and the fields it
	// names carry the arguments.
	request struct {
		op   op
		path string // open, create, mkdir, stat, unlink, readdir
		fd   int    // read, write, prealloc, blockmap, close
		off  int64  // read, write
		n    int    // read: bytes wanted
		size int64  // prealloc
		// data is a write's payload, or the caller's buffer a read fills in
		// place (read(2)'s copyout); a read with nil data discards its bytes.
		data   []byte
		blocks []uint32 // blockmap: the caller's buffer, filled in place when large enough
	}
	// reply is every Unix-server answer; each op sets err and its own
	// result fields.
	reply struct {
		fd     int      // open, create
		n      int      // read, write
		size   int64    // blockmap
		blocks []uint32 // blockmap
		st     Stat
		ents   []DirEntry
		err    error
	}
)

// NewServer starts the Unix server thread at the given priority (typically
// rtm.PrioTS) and returns its handle.
func NewServer(k *rtm.Kernel, fs *FileSystem, prio int, quantum sim.Time) *Server {
	s := &Server{fs: fs, port: rtm.NewRPC[request, reply]("unix-server", rtm.Unbounded), fds: make(map[int]*File), nextFd: 3}
	s.th = k.NewThread("unix-server", prio, quantum, s.loop)
	return s
}

// Thread returns the server thread.
func (s *Server) Thread() *rtm.Thread { return s.th }

// FS returns the served file system (for out-of-band inspection in tests).
func (s *Server) FS() *FileSystem { return s.fs }

func (s *Server) loop(t *rtm.Thread) {
	for {
		req, respond, ok := s.port.ReceiveCall(t)
		if !ok {
			return
		}
		s.Calls++
		t.Compute(CostSyscall)
		respond(s.handle(t, req))
	}
}

func (s *Server) file(fd int) (*File, error) {
	f, ok := s.fds[fd]
	if !ok {
		return nil, fmt.Errorf("ufs: bad file descriptor %d", fd)
	}
	return f, nil
}

// newFd installs an opened file under the next descriptor.
func (s *Server) newFd(f *File, err error) reply {
	if err != nil {
		return reply{err: err}
	}
	fd := s.nextFd
	s.nextFd++
	s.fds[fd] = f
	return reply{fd: fd}
}

func (s *Server) handle(t *rtm.Thread, r request) reply {
	p := t.Proc()
	switch r.op {
	case opOpen:
		return s.newFd(s.fs.Open(p, r.path))
	case opCreate:
		return s.newFd(s.fs.Create(p, r.path))
	case opMkdir:
		return reply{err: s.fs.Mkdir(p, r.path)}
	case opStat:
		st, err := s.fs.Stat(p, r.path)
		return reply{st: st, err: err}
	case opUnlink:
		return reply{err: s.fs.Unlink(p, r.path)}
	case opReadDir:
		ents, err := s.fs.ReadDir(p, r.path)
		return reply{ents: ents, err: err}
	case opClose:
		delete(s.fds, r.fd)
		return reply{}
	case opSync:
		s.fs.Sync(p)
		return reply{}
	}
	f, err := s.file(r.fd)
	if err != nil {
		return reply{err: err}
	}
	switch r.op {
	case opRead:
		n, err := f.read(p, r.data, r.off, r.n)
		t.Compute(CostPerBlock * sim.Time(1+(n-1)/BlockSize))
		return reply{n: n, err: err}
	case opWrite:
		t.Compute(CostPerBlock * sim.Time(1+(len(r.data)-1)/BlockSize))
		n, err := f.WriteAt(p, r.data, r.off)
		return reply{n: n, err: err}
	case opPrealloc:
		return reply{err: f.Preallocate(p, r.size)}
	default: // opBlockMap
		blocks, err := f.BlockMap(p, r.blocks)
		return reply{blocks: blocks, size: f.Size(p), err: err}
	}
}

// Client is a thread-side stub for calling the Unix server.
type Client struct {
	srv *Server
	th  *rtm.Thread
}

// NewClient binds a calling thread to a server.
func NewClient(srv *Server, th *rtm.Thread) *Client { return &Client{srv: srv, th: th} }

// call performs one Unix-server RPC. The server's port is unbounded and
// never destroyed, so Call cannot fail; were it to, the port's error would
// be the reply's.
func (c *Client) call(req request) reply {
	r, err := c.srv.port.Call(c.th, req)
	if err != nil {
		r.err = err
	}
	return r
}

// Open opens an existing file and returns its descriptor.
func (c *Client) Open(path string) (int, error) {
	r := c.call(request{op: opOpen, path: path})
	return r.fd, r.err
}

// Create makes a new file and returns its descriptor.
func (c *Client) Create(path string) (int, error) {
	r := c.call(request{op: opCreate, path: path})
	return r.fd, r.err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	return c.call(request{op: opMkdir, path: path}).err
}

// ReadAt reads up to len(buf) bytes at off from an open file into buf and
// returns the count, short at end of file. The server fills buf in place,
// as read(2) copies out into the caller's buffer, so a caller that reuses
// one buffer reads without allocating.
func (c *Client) ReadAt(fd int, buf []byte, off int64) (int, error) {
	r := c.call(request{op: opRead, fd: fd, off: off, n: len(buf), data: buf})
	return r.n, r.err
}

// Discard reads up to n bytes at off from an open file and drops them,
// returning the count ReadAt would: the server does every lookup, cache
// and disk step of the read and charges the same CPU, but copies nothing
// (File.Discard). It is the read of a caller that never looks at the
// data, like cat > /dev/null.
func (c *Client) Discard(fd int, off int64, n int) (int, error) {
	r := c.call(request{op: opRead, fd: fd, off: off, n: n})
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
	r := c.call(request{op: opWrite, fd: fd, off: off, data: data})
	return r.n, r.err
}

// Preallocate extends a file with placed but unwritten blocks.
func (c *Client) Preallocate(fd int, size int64) error {
	return c.call(request{op: opPrealloc, fd: fd, size: size}).err
}

// BlockMapInto returns the file's physical block map and size. The server
// fills buf's backing array in place when it is large enough, as ReadAt
// fills its buffer, so a caller that reuses one buffer maps files without
// allocating.
func (c *Client) BlockMapInto(fd int, buf []uint32) ([]uint32, int64, error) {
	r := c.call(request{op: opBlockMap, fd: fd, blocks: buf})
	return r.blocks, r.size, r.err
}

// BlockMap returns the file's physical block map, in a new slice, and size.
func (c *Client) BlockMap(fd int) ([]uint32, int64, error) { return c.BlockMapInto(fd, nil) }

// Stat returns file metadata.
func (c *Client) Stat(path string) (Stat, error) {
	r := c.call(request{op: opStat, path: path})
	return r.st, r.err
}

// Unlink removes a file.
func (c *Client) Unlink(path string) error {
	return c.call(request{op: opUnlink, path: path}).err
}

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) ([]DirEntry, error) {
	r := c.call(request{op: opReadDir, path: path})
	return r.ents, r.err
}

// Close releases a descriptor.
func (c *Client) Close(fd int) error {
	return c.call(request{op: opClose, fd: fd}).err
}

// Sync flushes all dirty state to disk.
func (c *Client) Sync() error {
	return c.call(request{op: opSync}).err
}
