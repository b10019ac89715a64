package media

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

func testContainer(dur sim.Time) *Container {
	return &Container{
		Name: "/movie",
		Tracks: []Track{
			{Kind: "video", Info: MPEG1().Generate("v", dur)},
			{Kind: "audio", Info: CBRProfile{FrameRate: 30, Rate: 176400}.Generate("a", dur)},
		},
	}
}

func TestContainerLayout(t *testing.T) {
	c := testContainer(5 * time.Second)
	tracks, total, err := c.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d", len(tracks))
	}
	// Regions are block-aligned, ordered, and non-overlapping.
	if tracks[0].Chunks[0].Offset%ufs.BlockSize != 0 {
		t.Fatalf("video region base %d not block-aligned", tracks[0].Chunks[0].Offset)
	}
	videoEnd := tracks[0].TotalSize()
	audioBase := tracks[1].Chunks[0].Offset
	if audioBase < videoEnd {
		t.Fatalf("audio region %d overlaps video end %d", audioBase, videoEnd)
	}
	if audioBase%ufs.BlockSize != 0 {
		t.Fatalf("audio region base %d not block-aligned", audioBase)
	}
	if total < tracks[1].TotalSize() {
		t.Fatalf("total %d does not cover the last region end %d", total, tracks[1].TotalSize())
	}
	// Rebased tables keep per-track contiguity (offset validation would
	// fail only on the zero-base rule, which rebasing intentionally breaks;
	// check chunk-to-chunk contiguity by hand).
	for _, tr := range tracks {
		for i := 1; i < len(tr.Chunks); i++ {
			if tr.Chunks[i].Offset != tr.Chunks[i-1].Offset+tr.Chunks[i-1].Size {
				t.Fatalf("track %s not contiguous at chunk %d", tr.Name, i)
			}
		}
	}
}

func TestContainerIndexRoundtrip(t *testing.T) {
	c := testContainer(3 * time.Second)
	enc := c.encodeIndex()
	if int64(len(enc)) != c.indexSize() || len(enc)%ufs.BlockSize != 0 {
		t.Fatalf("index atom %d bytes, want aligned %d", len(enc), c.indexSize())
	}
	tracks, err := DecodeContainerIndex("/movie", enc)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := c.Layout()
	if len(tracks) != 2 || tracks[0].Kind != "video" || tracks[1].Kind != "audio" {
		t.Fatalf("decoded tracks = %+v", tracks)
	}
	for i := range tracks {
		if len(tracks[i].Info.Chunks) != len(want[i].Chunks) {
			t.Fatalf("track %d chunk count", i)
		}
		for j := range want[i].Chunks {
			if tracks[i].Info.Chunks[j] != want[i].Chunks[j] {
				t.Fatalf("track %d chunk %d: %+v vs %+v", i, j, tracks[i].Info.Chunks[j], want[i].Chunks[j])
			}
		}
	}
}

func TestDecodeContainerIndexErrors(t *testing.T) {
	if _, err := DecodeContainerIndex("x", []byte{1, 2}); err == nil {
		t.Fatal("short data accepted")
	}
	enc := testContainer(time.Second).encodeIndex()
	enc[0] ^= 0xFF
	if _, err := DecodeContainerIndex("x", enc); err == nil {
		t.Fatal("bad magic accepted")
	}
	enc[0] ^= 0xFF
	if _, err := DecodeContainerIndex("x", enc[:40]); err == nil {
		t.Fatal("truncated index accepted")
	}
}

// A hostile index whose track-kind length or chunk count is near 2^64 is
// reported as truncated: as a signed int such a length is negative and once
// slipped past the bounds check into a slice expression or make.
func TestDecodeContainerIndexHugeLengths(t *testing.T) {
	const kindLenAt = 12 + 16 // header, then the first track's base and size
	chunksAt := kindLenAt + 8 + len("video")
	for _, tc := range []struct {
		name string
		at   int
		v    uint64
	}{
		{"kind length 2^64-1", kindLenAt, 1<<64 - 1},
		{"kind length 2^63", kindLenAt, 1 << 63},
		{"chunk count 2^64-1", chunksAt, 1<<64 - 1},
		{"chunk count 2^63", chunksAt, 1 << 63},
		{"chunk count 2^59", chunksAt, 1 << 59}, // 32 × 2^59 wraps to 0
	} {
		enc := testContainer(time.Second).encodeIndex()
		binary.LittleEndian.PutUint64(enc[tc.at:], tc.v)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", tc.name, r)
				}
			}()
			if _, err := DecodeContainerIndex("x", enc); err == nil || !strings.Contains(err.Error(), "truncated") {
				t.Errorf("%s: err = %v, want a truncated error", tc.name, err)
			}
		}()
	}
}

func TestStoreAndLoadContainer(t *testing.T) {
	e := sim.NewEngine(1)
	g, pr := disk.ST32550N()
	g.Cylinders = 400
	g.Heads = 4
	d := disk.New(e, "sd0", g, pr)
	if _, err := ufs.Format(d, ufs.Options{}); err != nil {
		t.Fatal(err)
	}
	c := testContainer(4 * time.Second)
	e.Spawn("setup", func(p *sim.Proc) {
		fs, err := ufs.Mount(p, d, ufs.Options{})
		if err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		stored, err := StoreContainer(p, fs, "/movie", c)
		if err != nil {
			t.Errorf("StoreContainer: %v", err)
			return
		}
		st, err := fs.Stat(p, "/movie")
		if err != nil || st.Size < stored[1].TotalSize() {
			t.Errorf("container file stat = %+v, %v", st, err)
			return
		}

		// Load back through the Unix server path.
		k := rtm.NewKernel(e)
		srv := ufs.NewServer(k, fs, rtm.PrioTS, 0)
		k.NewThread("player", rtm.PrioTS, 0, func(th *rtm.Thread) {
			tracks, err := LoadContainer(ufs.NewClient(srv, th), "/movie")
			if err != nil {
				t.Errorf("LoadContainer: %v", err)
				return
			}
			if len(tracks) != 2 {
				t.Errorf("tracks = %d", len(tracks))
				return
			}
			for i, tr := range tracks {
				if tr.Info.TotalSize() != stored[i].TotalSize() {
					t.Errorf("track %d size mismatch", i)
				}
				if tr.Info.Chunks[0].Offset != stored[i].Chunks[0].Offset {
					t.Errorf("track %d base mismatch", i)
				}
			}
		})
	})
	e.Run()
}
