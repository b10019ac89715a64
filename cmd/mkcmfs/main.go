// Command mkcmfs prepares a continuous-media volume: it formats a simulated
// ST32550N-class disk with the UFS layout (tuned for contiguous allocation,
// as the paper does with tunefs), lays out a set of movie files with their
// control tracks, and writes the result as a disk image that cmd/crasplay
// can mount. A layout report shows how contiguously each movie landed.
//
//	mkcmfs -o cm.img -movies 4 -seconds 30 -rate mpeg1
//	mkcmfs -o cm.img -movies 2 -rate mpeg2 -fragment   # untuned, rotdelay layout
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
	"repro/internal/sim"
	"repro/internal/ufs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mkcmfs: ")
	var (
		out       = flag.String("o", "cm.img", "output image path")
		nMovies   = flag.Int("movies", 4, "number of movies to create")
		seconds   = flag.Int("seconds", 30, "duration of each movie")
		rate      = flag.String("rate", "mpeg1", "stream profile: mpeg1 | mpeg2 | vbr")
		fragment  = flag.Bool("fragment", false, "use the untuned rotdelay layout (demonstrates Section 3.2)")
		container = flag.Bool("container", false, "store QuickTime-style containers (video+audio tracks per movie)")
		parity    = flag.Int("parity", 0, "stripe across N rotating-parity members (N>=3); writes one image per member as <out>.<i>")
		stripe    = flag.Int64("stripe", 64, "stripe unit in sectors (parity mode)")
		seed      = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	eng := sim.NewEngine(*seed)
	g, p := disk.ST32550N()
	var dev ufs.BlockDevice
	var members []*disk.Disk
	if *parity > 0 {
		members = make([]*disk.Disk, *parity)
		for i := range members {
			members[i] = disk.New(eng, fmt.Sprintf("sd%d", i), g, p)
		}
		vol, err := disk.NewParityVolume("vol0", members, *stripe)
		if err != nil {
			log.Fatalf("parity volume: %v", err)
		}
		dev = vol
	} else {
		dev = disk.New(eng, "sd0", g, p)
	}

	opts := ufs.Options{}
	if *fragment {
		opts = ufs.Options{MaxContig: 2, RotDelay: 4}
	}
	if _, err := ufs.Format(dev, opts); err != nil {
		log.Fatalf("format: %v", err)
	}

	dur := time.Duration(*seconds) * time.Second
	var setupErr error
	eng.Spawn("mkcmfs", func(pr *sim.Proc) {
		fs, err := ufs.Mount(pr, dev, opts)
		if err != nil {
			setupErr = err
			return
		}
		var storer media.Storer // one encode buffer for every title
		for i := 0; i < *nMovies; i++ {
			path := fmt.Sprintf("/m%02d", i)
			if *container {
				c := &media.Container{
					Name: path,
					Tracks: []media.Track{
						{Kind: "video", Info: media.MPEG1().Generate("v", dur)},
						{Kind: "audio", Info: media.CBRProfile{FrameRate: 30, Rate: 176400}.Generate("a", dur)},
					},
				}
				tracks, err := storer.StoreContainer(pr, fs, path, c)
				if err != nil {
					setupErr = err
					return
				}
				fmt.Printf("%s  container: %d tracks, %8d bytes\n",
					path, len(tracks), tracks[len(tracks)-1].TotalSize())
				continue
			}
			var info *media.StreamInfo
			switch *rate {
			case "mpeg1":
				info = media.MPEG1().Generate(path, dur)
			case "mpeg2":
				info = media.MPEG2().Generate(path, dur)
			case "vbr":
				info = media.VBRProfile{FrameRate: 30, MeanRate: 187500, Jitter: 0.25}.
					Generate(path, dur, eng.RNG(path))
			default:
				setupErr = fmt.Errorf("unknown rate %q", *rate)
				return
			}
			if err := storer.Store(pr, fs, path, info); err != nil {
				setupErr = err
				return
			}
			f, err := fs.Open(pr, path)
			if err != nil {
				setupErr = err
				return
			}
			bm, err := f.BlockMap(pr, nil)
			if err != nil {
				setupErr = err
				return
			}
			ext, err := core.BuildExtentMap(bm, f.Size(pr), 256<<10)
			if err != nil {
				setupErr = err
				return
			}
			fmt.Printf("%s  %8d bytes  %4d chunks  %3d extents  avg run %d KB\n",
				path, info.TotalSize(), len(info.Chunks), len(ext.Extents), ext.AverageRunBytes()/1024)
		}
		fs.Sync(pr)
	})
	eng.Run()
	if setupErr != nil {
		log.Fatal(setupErr)
	}

	if *parity > 0 {
		// One image per member; cmfsck -parity reassembles and verifies them.
		var total int64
		for i, m := range members {
			path := fmt.Sprintf("%s.%d", *out, i)
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := m.SaveImage(f); err != nil {
				log.Fatalf("save image %s: %v", path, err)
			}
			st, _ := f.Stat()
			total += st.Size()
			f.Close()
		}
		fmt.Printf("wrote %s.0..%d (%d movies, images %d KB, volume %d MB usable)\n",
			*out, *parity-1, *nMovies, total/1024, dev.Geometry().Capacity()>>20)
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := dev.(*disk.Disk).SaveImage(f); err != nil {
		log.Fatalf("save image: %v", err)
	}
	st, _ := f.Stat()
	fmt.Printf("wrote %s (%d movies, image %d KB, volume %d MB)\n",
		*out, *nMovies, st.Size()/1024, dev.Geometry().Capacity()>>20)
}
