// Package lab assembles complete simulated machines — disk, file system,
// Unix server, kernel, CRAS — for the experiment harness, the examples and
// the integration tests. It encapsulates the boot sequence the paper's
// testbed implied: format the disk, lay out the movie files contiguously,
// start the Unix server, start CRAS with parameters measured from the
// disk, then hand control to the workload.
package lab

import (
	"cmp"
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// Movie is a stream to store during setup.
type Movie struct {
	Path string
	Info *media.StreamInfo
}

// Setup configures a machine build.
type Setup struct {
	Seed int64

	// Engine, when non-nil, boots the machine on an existing engine instead
	// of creating one from Seed — several machines then share one virtual
	// timeline (the cluster configuration). The caller drives that engine
	// directly; Seed is ignored.
	Engine *sim.Engine

	// Name prefixes the machine's device names ("n0." makes disks
	// "n0.sd0"), keeping traces and per-device RNG streams distinct when
	// several machines share an engine.
	Name string

	// DiskCylinders shrinks the disk for fast tests; 0 keeps the full
	// ST32550N geometry.
	DiskCylinders int
	DiskHeads     int

	// Disks builds a striped volume over this many member disks (each with
	// the geometry above). 0 or 1 is the single-disk machine; Disks == 1
	// still routes through the volume layer (the identity mapping), which
	// the equivalence tests rely on.
	Disks int

	// StripeSectors is the stripe unit; 0 picks 64 sectors (32 KB) when
	// Disks > 1.
	StripeSectors int64

	// Parity builds the volume with a rotating parity unit per stripe row
	// (RAID-5 style; requires Disks >= 3), surviving one member's death.
	Parity bool

	FSOpts ufs.Options
	CRAS   core.Config

	// UnixPrio/UnixQuantum place the Unix server thread; defaults are the
	// timesharing band with no quantum.
	UnixPrio    int
	UnixQuantum sim.Time

	Movies []Movie

	// Containers are QuickTime-style multi-track movies to store during
	// setup; the rebased per-track chunk tables land in Machine.Tracks.
	Containers []*media.Container

	// NoCRAS skips starting the CRAS server (UFS-only baselines).
	NoCRAS bool
}

// Machine is a booted simulated machine.
type Machine struct {
	Eng    *sim.Engine
	Kernel *rtm.Kernel
	Disk   *disk.Disk   // member 0 (the whole disk on a single-disk machine)
	Vol    *disk.Volume // the volume everything is mounted on
	FS     *ufs.FileSystem
	Unix   *ufs.Server
	CRAS   *core.Server

	// Tracks holds the rebased chunk tables of stored containers, keyed by
	// container name (path).
	Tracks map[string][]*media.StreamInfo

	name      string   // Setup.Name, prefixing violations
	interval  sim.Time // the CRAS interval: Run sweeps once per interval
	setupErr  error
	violation error // the first CheckInvariants violation a sweep found
}

// Build constructs the machine. Setup (mkfs, movie layout, server start)
// happens in simulated time; once it completes, ready is invoked from
// engine context to spawn the workload. The caller then drives the engine
// (m.Run / m.Eng.RunUntil).
func Build(s Setup, ready func(m *Machine)) *Machine {
	e := s.Engine
	if e == nil {
		e = sim.NewEngine(s.Seed)
	}
	m := &Machine{Eng: e, name: s.Name, interval: cmp.Or(s.CRAS.Interval, core.DefaultInterval)}
	g, p := disk.ST32550N()
	if s.DiskCylinders > 0 {
		g.Cylinders = s.DiskCylinders
	}
	if s.DiskHeads > 0 {
		g.Heads = s.DiskHeads
	}
	var vol *disk.Volume
	if s.Disks >= 1 {
		members := make([]*disk.Disk, s.Disks)
		for i := range members {
			members[i] = disk.New(e, fmt.Sprintf("%ssd%d", s.Name, i), g, p)
		}
		stripe := s.StripeSectors
		if stripe == 0 {
			stripe = 64 // 32 KB, one UFS block span per unit at 512 B sectors
		}
		var v *disk.Volume
		var err error
		if s.Parity {
			v, err = disk.NewParityVolume(s.Name+"vol0", members, stripe)
		} else {
			v, err = disk.NewVolume(s.Name+"vol0", members, stripe)
		}
		if err != nil {
			m.setupErr = err
			return m
		}
		vol = v
	} else {
		vol = disk.SingleVolume(disk.New(e, s.Name+"sd0", g, p))
	}
	m.Disk, m.Vol = vol.Disk(0), vol
	if _, err := ufs.Format(vol, s.FSOpts); err != nil {
		m.setupErr = err
		return m
	}
	e.Spawn(s.Name+"lab.setup", func(pr *sim.Proc) {
		fs, err := ufs.Mount(pr, vol, s.FSOpts)
		if err != nil {
			m.setupErr = fmt.Errorf("lab: mount: %w", err)
			return
		}
		m.FS = fs
		for _, mv := range s.Movies {
			if dir := parentDir(mv.Path); dir != "" {
				if err := fs.MkdirAll(pr, dir); err != nil {
					m.setupErr = fmt.Errorf("lab: mkdir %s: %w", dir, err)
					return
				}
			}
			if err := media.Store(pr, fs, mv.Path, mv.Info); err != nil {
				m.setupErr = fmt.Errorf("lab: store %s: %w", mv.Path, err)
				return
			}
		}
		m.Tracks = make(map[string][]*media.StreamInfo)
		for _, c := range s.Containers {
			if dir := parentDir(c.Name); dir != "" {
				if err := fs.MkdirAll(pr, dir); err != nil {
					m.setupErr = fmt.Errorf("lab: mkdir %s: %w", dir, err)
					return
				}
			}
			tracks, err := media.StoreContainer(pr, fs, c.Name, c)
			if err != nil {
				m.setupErr = fmt.Errorf("lab: store container %s: %w", c.Name, err)
				return
			}
			m.Tracks[c.Name] = tracks
		}
		fs.Sync(pr)

		m.Kernel = rtm.NewKernel(e)
		unixPrio := s.UnixPrio
		if unixPrio == 0 {
			unixPrio = rtm.PrioTS
		}
		m.Unix = ufs.NewServer(m.Kernel, fs, unixPrio, s.UnixQuantum)
		if !s.NoCRAS {
			cfg := s.CRAS
			if cfg.Params.D == 0 {
				cfg.Params = core.MeasureAdmissionParams(vol.Disk(0), 64<<10)
			}
			m.CRAS = core.NewServer(m.Kernel, vol, core.UnixResolver(m.Unix), cfg)
		}
		ready(m)
	})
	return m
}

// Err returns the setup error, or else the first invariant violation a
// sweep during Run found. Check after the engine has run far enough for
// setup to complete.
func (m *Machine) Err() error {
	if m.setupErr != nil {
		return m.setupErr
	}
	return m.violation
}

// Run advances the simulation by d, sweeping the server's invariants after
// every interval (lab.Run); it panics on a setup error.
func (m *Machine) Run(d sim.Time) { Run(d, m) }

// Run advances the engine the machines share by d, one CRAS interval at a
// time, and after each interval sweeps every machine's server
// (core.Server.CheckInvariants). A machine keeps the first violation for
// Err; a setup error panics.
func Run(d sim.Time, ms ...*Machine) {
	e, end := ms[0].Eng, ms[0].Eng.Now()+d
	for {
		e.RunFor(min(ms[0].interval, end-e.Now()))
		for _, m := range ms {
			if m.setupErr != nil {
				panic(m.setupErr)
			}
			if m.CRAS == nil || m.violation != nil {
				continue
			}
			if err := m.CRAS.CheckInvariants(); err != nil {
				m.violation = fmt.Errorf("lab: %sCRAS at %v: %w", m.name, e.Now(), err)
			}
		}
		if e.Now() >= end {
			break
		}
	}
}

// parentDir returns the directory part of a path ("" for root-level files).
func parentDir(path string) string {
	idx := -1
	for i, c := range path {
		if c == '/' {
			idx = i
		}
	}
	if idx <= 0 {
		return ""
	}
	return path[:idx]
}

// App spawns an application thread at the default application priority.
func (m *Machine) App(name string, prio int, quantum sim.Time, body func(th *rtm.Thread)) *rtm.Thread {
	return m.Kernel.NewThread(name, prio, quantum, body)
}
