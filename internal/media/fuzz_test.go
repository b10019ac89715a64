package media

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sim"
)

// Native fuzz targets for the two decoders that read bytes from the file
// system: control files and container index atoms. Plain `go test` replays
// the seed corpora in testdata/fuzz/, which the media encoders produce
// (TestFuzzCorporaFromEncoders keeps them in step). An open-ended search
// is a manual step, one target at a time:
//
//	go test ./internal/media -run '^$' -fuzz FuzzDecodeControl -fuzztime 5m
//
// A failing input lands in testdata/fuzz/<target>/ and replays from then
// on; the panic it found becomes a typed error and a named regression test.

// fuzzSeeds returns each target's seed inputs, by file name, built with
// the encoders: well-formed tables and indexes of CBR and VBR streams,
// empty ones, and the same bytes truncated, with a bad magic or version,
// or with a length field that overstates what follows.
func fuzzSeeds() map[string]map[string][]byte {
	cbr := MPEG1().Generate("/c", 200*time.Millisecond)
	vbr := VBRProfile{FrameRate: 30, MeanRate: 187500, Jitter: 0.25}.Generate("/v", 200*time.Millisecond, sim.NewEngine(1).RNG("/v"))
	ctl := EncodeControl(cbr)
	overCount := bytes.Clone(ctl)
	overCount[4]++ // one chunk more than the bytes hold

	two := testContainer(100 * time.Millisecond)
	one := &Container{Name: "/one", Tracks: []Track{{Kind: "", Info: vbr}}}
	idx := unpaddedIndex(two)
	badVersion := bytes.Clone(idx)
	badVersion[4] = 2
	bigKind := bytes.Clone(idx)
	bigKind[12+16+7] = 0xff // the first track's kind length near 2^64
	return map[string]map[string][]byte{
		"FuzzDecodeControl": {
			"cbr":        ctl,
			"vbr":        EncodeControl(vbr),
			"empty":      EncodeControl(&StreamInfo{}),
			"truncated":  ctl[:len(ctl)-5],
			"over-count": overCount,
			"bad-magic":  append([]byte("CTL0"), ctl[4:]...),
		},
		"FuzzDecodeContainerIndex": {
			"two-tracks":   idx,
			"one-track":    unpaddedIndex(one),
			"no-tracks":    unpaddedIndex(&Container{Name: "/none"}),
			"truncated":    idx[:40],
			"bad-version":  badVersion,
			"kind-too-big": bigKind,
		},
	}
}

// unpaddedIndex is c's index atom without the zeros that pad it to a
// block, which the decoder never reads.
func unpaddedIndex(c *Container) []byte {
	n := 12
	for _, tr := range c.Tracks {
		n += 16 + 8 + len(tr.Kind) + 8 + 32*len(tr.Info.Chunks)
	}
	return c.encodeIndex()[:n]
}

// corpusFile renders one seed in the fuzz corpus file format.
func corpusFile(data []byte) []byte {
	return fmt.Appendf(nil, "go test fuzz v1\n[]byte(%q)\n", data)
}

// TestFuzzCorporaFromEncoders checks that testdata/fuzz holds exactly the
// seeds the encoders produce today. UPDATE_FUZZ_CORPUS=1 rewrites them.
func TestFuzzCorporaFromEncoders(t *testing.T) {
	update := os.Getenv("UPDATE_FUZZ_CORPUS") == "1"
	for target, seeds := range fuzzSeeds() {
		dir := filepath.Join("testdata", "fuzz", target)
		for name, data := range seeds {
			path := filepath.Join(dir, "seed-"+name)
			want := corpusFile(data)
			if update {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, want, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s is missing or stale (%v); regenerate with UPDATE_FUZZ_CORPUS=1 go test ./internal/media -run TestFuzzCorporaFromEncoders", path, err)
			}
		}
	}
}

// FuzzDecodeControl: any bytes decode to a chunk table or an error, never
// a panic, and a table that decodes validates and re-encodes to the bytes
// it was read from.
func FuzzDecodeControl(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeControl("/f", data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("decoded a table Validate refuses: %v", err)
		}
		if enc := EncodeControl(s); !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("decoded %d chunks that re-encode to different bytes", len(s.Chunks))
		}
	})
}

// FuzzDecodeContainerIndex: any bytes decode to tracks or an error, never
// a panic, and what decodes fits in the bytes it came from.
func FuzzDecodeContainerIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tracks, err := DecodeContainerIndex("/f", data)
		if err != nil {
			return
		}
		size := 12
		for _, tr := range tracks {
			size += 32 + len(tr.Kind) + 32*len(tr.Info.Chunks)
		}
		if size > len(data) {
			t.Fatalf("decoded %d tracks needing %d bytes from %d", len(tracks), size, len(data))
		}
	})
}
