// Embedded configuration: Figure 5's right-hand setup, where CRAS is
// linked with the application and no Unix server runs at all — the
// arrangement the paper proposes for continuous media in embedded systems.
// The application resolves media files against the file system directly
// (DirectResolver), and the only threads on the machine are CRAS's five
// and the application's own.
package main

import (
	"fmt"
	"time"

	cras "repro"
)

func main() {
	eng := cras.NewEngine(21)
	geo, par := cras.ST32550N()
	dsk := cras.NewDisk(eng, "sd0", geo, par)
	if _, err := cras.FormatFS(dsk, cras.FSOptions{}); err != nil {
		panic(err)
	}

	movie := cras.MPEG1().Generate("/anthem", 8*time.Second)

	eng.Spawn("boot", func(p *cras.Proc) {
		fs, err := cras.MountFS(p, dsk, cras.FSOptions{})
		if err != nil {
			panic(err)
		}
		if err := cras.StoreMovie(p, fs, "/anthem", movie); err != nil {
			panic(err)
		}
		fs.Sync(p)

		k := cras.NewKernel(eng)
		// No Unix server: CRAS resolves against the linked-in file system.
		server := cras.NewServer(k, cras.SingleVolume(dsk), cras.DirectResolver(fs), cras.Config{})

		k.NewThread("appliance", cras.PrioRTLow, 0, func(th *cras.Thread) {
			// The appliance reads its own control file, again without any
			// server in the way.
			info, err := loadControlDirect(th, fs, "/anthem")
			if err != nil {
				panic(err)
			}
			h, err := server.Open(th, info, "/anthem", cras.OpenOptions{})
			if err != nil {
				panic(err)
			}
			h.Start(th)
			got := 0
			for i := range info.Chunks {
				c := info.Chunks[i]
				due := h.ClockStartsAt(c.Timestamp)
				if k.Now() < due {
					th.SleepUntil(due)
				}
				if _, ok := h.Get(c.Timestamp); ok {
					got++
				}
			}
			fmt.Printf("embedded appliance played %d/%d frames with no Unix server on the machine\n",
				got, len(info.Chunks))
			st := server.Stats()
			fmt.Printf("server: %d cycles, %d reads, %d deadline misses\n",
				st.Cycles, st.ReadsIssued, st.IODeadlineMiss)
		})
	})
	eng.RunUntil(20 * time.Second)
}

// loadControlDirect reads a control file straight off the file system from
// the calling thread — the embedded replacement for media.Load's
// Unix-server path.
func loadControlDirect(th *cras.Thread, fs *cras.FileSystem, path string) (*cras.StreamInfo, error) {
	p := th.Proc()
	f, err := fs.Open(p, cras.ControlPath(path))
	if err != nil {
		return nil, err
	}
	buf := make([]byte, f.Size(p))
	if _, err := f.ReadAt(p, buf, 0); err != nil {
		return nil, err
	}
	return cras.DecodeControl(path, buf)
}
