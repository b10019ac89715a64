package media

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/ufs"
)

// ControlPath returns the conventional control-file name for a media file.
func ControlPath(moviePath string) string { return moviePath + ".ctl" }

// Store lays a movie out on the file system: the media file is
// preallocated (its blocks placed, payloads sparse — the experiments do not
// need pixel bytes) and the chunk table is written to the control file.
// Must run in a simulation process; carries real disk-time cost. A caller
// storing many titles uses one Storer instead.
func Store(p *sim.Proc, fs *ufs.FileSystem, path string, s *StreamInfo) error {
	return new(Storer).Store(p, fs, path, s)
}

// Storer lays movies out through one encode buffer reused from title to
// title: each control file or index atom is encoded into it and copied
// into the buffer cache by WriteAt, so a set-up storing many titles
// allocates no per-title encoding. A Storer belongs to the process doing
// the set-up; the zero value is ready.
type Storer struct {
	buf []byte
}

// Store is the package Store, encoding into the Storer's buffer.
func (st *Storer) Store(p *sim.Proc, fs *ufs.FileSystem, path string, s *StreamInfo) error {
	if err := s.Validate(); err != nil {
		return err
	}
	mf, err := fs.Create(p, path)
	if err != nil {
		return fmt.Errorf("media: create %s: %w", path, err)
	}
	if err := mf.Preallocate(p, s.TotalSize()); err != nil {
		return fmt.Errorf("media: preallocate %s: %w", path, err)
	}
	cf, err := fs.Create(p, ControlPath(path))
	if err != nil {
		return fmt.Errorf("media: create control: %w", err)
	}
	st.buf = appendControl(st.buf[:0], s)
	if _, err := cf.WriteAt(p, st.buf, 0); err != nil {
		return fmt.Errorf("media: write control: %w", err)
	}
	return nil
}

// Load reads a movie's chunk table back through the Unix server client —
// the path an application takes before handing the table to CRAS. The
// movie name is the media path.
func Load(c *ufs.Client, path string) (*StreamInfo, error) {
	st, err := c.Stat(ControlPath(path))
	if err != nil {
		return nil, err
	}
	fd, err := c.Open(ControlPath(path))
	if err != nil {
		return nil, err
	}
	defer c.Close(fd) //crasvet:allow ioerrcheck -- read-only fd; close cannot lose data
	data, err := c.Read(fd, 0, int(st.Size))
	if err != nil {
		return nil, err
	}
	return DecodeControl(path, data)
}

// LoadFS reads a chunk table directly from the file system (tooling path).
func LoadFS(p *sim.Proc, fs *ufs.FileSystem, path string) (*StreamInfo, error) {
	f, err := fs.Open(p, ControlPath(path))
	if err != nil {
		return nil, err
	}
	buf := make([]byte, f.Size(p))
	if _, err := f.ReadAt(p, buf, 0); err != nil {
		return nil, err
	}
	return DecodeControl(path, buf)
}
