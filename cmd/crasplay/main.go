// Command crasplay mounts a volume prepared by mkcmfs and plays one or more
// movies through CRAS (or through the Unix file system with -ufs, for
// comparison), printing per-frame delay statistics and server counters —
// a command-line QtPlay.
//
//	crasplay -disk cm.img /m00
//	crasplay -disk cm.img -ufs -load /m00       # the paper's baseline, with cats
//	crasplay -disk cm.img /m00 /m01 /m02        # several streams at once
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crasplay: ")
	var (
		img    = flag.String("disk", "cm.img", "disk image from mkcmfs")
		useUFS = flag.Bool("ufs", false, "play through the Unix file system instead of CRAS")
		load   = flag.Bool("load", false, "run two background cat readers")
		delay  = flag.Duration("delay", time.Second, "initial delay")
		seed   = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	paths := flag.Args()
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: crasplay [-flags] /movie [/movie ...]")
		os.Exit(2)
	}

	f, err := os.Open(*img)
	if err != nil {
		log.Fatal(err)
	}
	eng := sim.NewEngine(*seed)
	d, err := disk.LoadImage(eng, "sd0", f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	stats := make([]*workload.PlayerStats, len(paths))
	for i := range stats {
		stats[i] = &workload.PlayerStats{}
	}
	var maxDur sim.Time
	var cras *core.Server
	var setupErr error
	eng.Spawn("boot", func(pr *sim.Proc) {
		fs, err := ufs.Mount(pr, d, ufs.Options{})
		if err != nil {
			setupErr = err
			return
		}
		k := rtm.NewKernel(eng)
		unix := ufs.NewServer(k, fs, rtm.PrioTS, 0)
		if !*useUFS {
			cras = core.NewServer(k, disk.SingleVolume(d), core.UnixResolver(unix), core.Config{
				InitialDelay: *delay,
				BufferBudget: 64 << 20,
				Params:       core.MeasureAdmissionParams(d, 64<<10),
			})
		}
		if *load {
			// Cats chew on the first movie's data file.
			workload.BackgroundReader(k, unix, paths[0], rtm.PrioTS, 0)
			workload.BackgroundReader(k, unix, paths[0], rtm.PrioTS, 0)
		}
		for i, path := range paths {
			info, err := media.LoadFS(pr, fs, path)
			if err != nil {
				// No control file: maybe a container — play its first
				// (video) track.
				if tracks, cerr := loadContainerFS(pr, fs, path); cerr == nil && len(tracks) > 0 {
					info = tracks[0].Info
				} else {
					setupErr = fmt.Errorf("%s: %w", path, err)
					return
				}
			}
			if info.TotalDuration() > maxDur {
				maxDur = info.TotalDuration()
			}
			if *useUFS {
				workload.UFSPlayer(k, unix, info, path, *delay, workload.PlayerConfig{}, stats[i])
			} else {
				workload.CRASPlayer(k, cras, info, path, core.OpenOptions{}, workload.PlayerConfig{}, stats[i])
			}
		}
	})
	eng.RunUntil(maxDur + *delay + 30*time.Second)
	if setupErr != nil {
		log.Fatal(setupErr)
	}

	tbl := metrics.NewTable("playback results", "movie", "frames", "obtained", "lost",
		"mean delay", "p99 delay", "max delay", "throughput")
	for i, path := range paths {
		s := stats[i].Delays.Summary()
		tbl.AddRow(path, stats[i].Frames, stats[i].Obtained, stats[i].Lost,
			fmt.Sprintf("%.2f ms", 1000*s.Mean),
			fmt.Sprintf("%.2f ms", 1000*s.P99),
			fmt.Sprintf("%.2f ms", 1000*s.Max),
			metrics.MBps(stats[i].Throughput()))
	}
	fmt.Println(tbl)
	if cras != nil {
		st := cras.Stats()
		fmt.Printf("server: %d cycles, %d reads, %d bytes, %d admission rejects, %d I/O deadline misses\n",
			st.Cycles, st.ReadsIssued, st.BytesRead, st.AdmissionRejects, st.IODeadlineMiss)
	}
}

// loadContainerFS reads a container index directly off the file system
// (crasplay's boot process has no Unix server client yet at probe time).
func loadContainerFS(pr *sim.Proc, fs *ufs.FileSystem, path string) ([]media.Track, error) {
	f, err := fs.Open(pr, path)
	if err != nil {
		return nil, err
	}
	n := f.Size(pr)
	if n > 1<<20 {
		n = 1 << 20
	}
	buf := make([]byte, n)
	if _, err := f.ReadAt(pr, buf, 0); err != nil {
		return nil, err
	}
	return media.DecodeContainerIndex(path, buf)
}
