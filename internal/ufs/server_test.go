package ufs

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/rtm"
	"repro/internal/sim"
)

// withServer builds a kernel, a formatted disk, a mounted FS, and the Unix
// server, then runs client bodies as threads.
func withServer(t *testing.T, fn func(k *rtm.Kernel, srv *Server)) {
	t.Helper()
	e := sim.NewEngine(1)
	d := smallDisk(e)
	if _, err := Format(d, Options{}); err != nil {
		t.Fatalf("Format: %v", err)
	}
	k := rtm.NewKernel(e)
	e.Spawn("setup", func(p *sim.Proc) {
		fs, err := Mount(p, d, Options{})
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		srv := NewServer(k, fs, rtm.PrioTS, 0)
		fn(k, srv)
	})
	e.Run()
}

func TestServerCreateWriteRead(t *testing.T) {
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		data := bytes.Repeat([]byte{7}, 3*BlockSize)
		k.NewThread("app", rtm.PrioTS, 0, func(th *rtm.Thread) {
			c := NewClient(srv, th)
			fd, err := c.Create("/file")
			if err != nil {
				t.Errorf("Create: %v", err)
				return
			}
			if n, err := c.Write(fd, 0, data); err != nil || n != len(data) {
				t.Errorf("Write = %d, %v", n, err)
				return
			}
			got, err := c.Read(fd, BlockSize, BlockSize)
			if err != nil || !bytes.Equal(got, data[BlockSize:2*BlockSize]) {
				t.Errorf("Read mismatch: %v", err)
			}
			if err := c.Close(fd); err != nil {
				t.Errorf("Close: %v", err)
			}
			if _, err := c.Read(fd, 0, 1); err == nil {
				t.Error("Read on closed fd succeeded")
			}
		})
	})
}

func TestServerBlockMapAndPreallocate(t *testing.T) {
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		k.NewThread("app", rtm.PrioTS, 0, func(th *rtm.Thread) {
			c := NewClient(srv, th)
			fd, _ := c.Create("/movie")
			if err := c.Preallocate(fd, 40*BlockSize); err != nil {
				t.Errorf("Preallocate: %v", err)
				return
			}
			blocks, size, err := c.BlockMap(fd)
			if err != nil || size != 40*BlockSize || len(blocks) != 40 {
				t.Errorf("BlockMap = %d blocks, size %d, %v", len(blocks), size, err)
			}
		})
	})
}

func TestServerSerializesClients(t *testing.T) {
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		// Two clients interleave many operations; the single server thread
		// must keep state consistent and reply to each correctly.
		mk := func(name, path string) {
			k.NewThread(name, rtm.PrioTS, 0, func(th *rtm.Thread) {
				c := NewClient(srv, th)
				fd, err := c.Create(path)
				if err != nil {
					t.Errorf("%s Create: %v", name, err)
					return
				}
				payload := bytes.Repeat([]byte(name[:1]), 512)
				for i := 0; i < 10; i++ {
					if _, err := c.Write(fd, int64(i*512), payload); err != nil {
						t.Errorf("%s Write: %v", name, err)
						return
					}
				}
				got, _ := c.Read(fd, 0, 512)
				if len(got) != 512 || got[0] != name[0] {
					t.Errorf("%s read back wrong data", name)
				}
			})
		}
		mk("a", "/fa")
		mk("b", "/fb")
	})
}

func TestServerStatUnlinkDirOps(t *testing.T) {
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		k.NewThread("app", rtm.PrioTS, 0, func(th *rtm.Thread) {
			c := NewClient(srv, th)
			if err := c.Mkdir("/docs"); err != nil {
				t.Errorf("Mkdir: %v", err)
			}
			fd, _ := c.Create("/docs/x")
			c.Write(fd, 0, []byte("data"))
			st, err := c.Stat("/docs/x")
			if err != nil || st.Size != 4 {
				t.Errorf("Stat = %+v, %v", st, err)
			}
			ents, err := c.ReadDir("/docs")
			if err != nil || len(ents) != 1 || ents[0].Name != "x" {
				t.Errorf("ReadDir = %v, %v", ents, err)
			}
			if err := c.Sync(); err != nil {
				t.Errorf("Sync: %v", err)
			}
			if err := c.Unlink("/docs/x"); err != nil {
				t.Errorf("Unlink: %v", err)
			}
			if _, err := c.Open("/docs/x"); !errors.Is(err, ErrNotFound) {
				t.Errorf("Open after unlink = %v", err)
			}
		})
	})
}

func TestServerTracksCallCount(t *testing.T) {
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		k.NewThread("app", rtm.PrioTS, 0, func(th *rtm.Thread) {
			c := NewClient(srv, th)
			c.Stat("/")
			c.Stat("/")
			if srv.Calls != 2 {
				t.Errorf("Calls = %d, want 2", srv.Calls)
			}
		})
	})
}

// A high-priority client's request can be delayed by a low-priority
// client's request already occupying the single server thread — the
// priority inversion the paper attributes to the Unix file system.
func TestServerPriorityInversionExists(t *testing.T) {
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		var hiStart, hiEnd sim.Time
		k.NewThread("lowprio-cat", rtm.PrioTS, 0, func(th *rtm.Thread) {
			c := NewClient(srv, th)
			fd, _ := c.Create("/bulk")
			c.Write(fd, 0, make([]byte, 32*BlockSize))
			for i := 0; i < 50; i++ {
				c.Read(fd, int64(i%32)*BlockSize, BlockSize)
			}
		})
		k.NewThread("rt-player", rtm.PrioRT, 0, func(th *rtm.Thread) {
			th.Sleep(5 * time.Millisecond)
			c := NewClient(srv, th)
			hiStart = k.Now()
			c.Stat("/")
			hiEnd = k.Now()
		})
		_ = hiStart
		_ = hiEnd
	})
	// No assertion on magnitude here (that is Figure 7's job); the
	// measured delay just must exist and the run must terminate.
}

func TestClientReadAt(t *testing.T) {
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		data := make([]byte, 3*BlockSize+100)
		for i := range data {
			data[i] = byte(i*7 + i/BlockSize)
		}
		size := int64(len(data))
		k.NewThread("app", rtm.PrioTS, 0, func(th *rtm.Thread) {
			c := NewClient(srv, th)
			fd, err := c.Create("/f")
			if err != nil {
				t.Errorf("Create: %v", err)
				return
			}
			if _, err := c.Write(fd, 0, data); err != nil {
				t.Errorf("Write: %v", err)
				return
			}
			buf := make([]byte, 2*BlockSize)

			// One buffer serves every read; each fills it in place.
			for _, off := range []int64{0, BlockSize + 5, 17, BlockSize} {
				n, err := c.ReadAt(fd, buf, off)
				if err != nil || n != len(buf) || !bytes.Equal(buf, data[off:off+int64(n)]) {
					t.Errorf("ReadAt(off %d) = %d, %v; want %d matching bytes", off, n, err, len(buf))
				}
			}

			// Short read at end of file.
			n, err := c.ReadAt(fd, buf, size-100)
			if err != nil || n != 100 || !bytes.Equal(buf[:n], data[size-100:]) {
				t.Errorf("ReadAt at EOF-100 = %d, %v; want 100 matching bytes", n, err)
			}

			// At or past the end of file nothing is read.
			for _, off := range []int64{size, size + BlockSize} {
				if n, err := c.ReadAt(fd, buf, off); n != 0 || err != nil {
					t.Errorf("ReadAt(off %d) past EOF = %d, %v; want 0, nil", off, n, err)
				}
			}

			// Read is ReadAt into a fresh buffer.
			got, err := c.Read(fd, BlockSize-3, 2*BlockSize)
			if n, err2 := c.ReadAt(fd, buf, BlockSize-3); err != nil || err2 != nil || !bytes.Equal(got, buf[:n]) {
				t.Errorf("Read and ReadAt disagree: %v, %v", err, err2)
			}

			// A bad descriptor reads nothing and reports the error.
			if n, err := c.ReadAt(fd+100, buf, 0); n != 0 || err == nil {
				t.Errorf("ReadAt on a bad fd = %d, %v; want 0 and an error", n, err)
			}
		})
	})
}

// TestClientReadAtAllocation guards the allocation-free read path: once the
// buffer cache's free list and read-ahead pool are warm, a sequential 256 KB
// ReadAt loop through the Unix server must allocate almost nothing per call.
// Before the server filled the caller's buffer and cache blocks were
// recycled, each such read allocated at least 512 KB: a 256 KB reply and
// 256 KB of read-ahead run buffers.
func TestClientReadAtAllocation(t *testing.T) {
	const req = 256 << 10
	const fileSize = 32 * req // 8 MB, four times the default 2 MB cache
	const measured = 16
	var perRead uint64
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		k.NewThread("cat", rtm.PrioTS, 0, func(th *rtm.Thread) {
			c := NewClient(srv, th)
			fd, err := c.Create("/bulk")
			if err == nil {
				err = c.Preallocate(fd, fileSize)
			}
			if err != nil {
				t.Errorf("setup: %v", err)
				return
			}
			buf := make([]byte, req)
			var off int64
			read := func() bool {
				n, err := c.ReadAt(fd, buf, off)
				if err != nil || n != req {
					t.Errorf("ReadAt(off %d) = %d, %v", off, n, err)
					return false
				}
				off = (off + req) % fileSize
				return true
			}
			for i := 0; i < fileSize/req; i++ { // warm up: one pass over the file
				if !read() {
					return
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < measured; i++ {
				if !read() {
					return
				}
			}
			runtime.ReadMemStats(&after)
			perRead = (after.TotalAlloc - before.TotalAlloc) / measured
		})
	})
	t.Logf("%d bytes allocated per 256 KB ReadAt", perRead)
	if perRead >= 16<<10 {
		t.Errorf("%d bytes allocated per 256 KB ReadAt; want under 16 KB", perRead)
	}
}
