package core

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// testAdmission is a plausible mid-90s disk for admission math tests: no
// machinery, just the measured constants the formulas consume.
func testAdmission() AdmissionParams {
	return AdmissionParams{
		D:        4 << 20, // 4 MB/s media rate
		TseekMax: 20 * time.Millisecond,
		TseekMin: 2 * time.Millisecond,
		Trot:     6 * time.Millisecond,
		Tcmd:     1 * time.Millisecond,
		Bother:   64 << 10,
	}
}

// TestParityDiskLoad pins the coalesced parity load model: the degraded
// charge is exactly the full-row span (every survivor reads the affected
// rows whole), the healthy charge never exceeds it, and a zero stripe
// degenerates to the raw fetch.
func TestParityDiskLoad(t *testing.T) {
	const stripe = int64(32 << 10)
	for _, n := range []int{3, 4, 5, 8} {
		for _, a := range []int64{1, stripe / 2, stripe, 100 << 10, 320 << 10, 765 << 10} {
			units := (a+stripe-1)/stripe + 1
			rows := (units + int64(n-1) - 1) / int64(n-1)
			degraded := parityDiskLoad(a, stripe, n, true)
			healthy := parityDiskLoad(a, stripe, n, false)
			if want := (rows + 1) * stripe; degraded != want {
				t.Errorf("parityDiskLoad(%d, n=%d, degraded) = %d, want %d", a, n, degraded, want)
			}
			if healthy > degraded {
				t.Errorf("parityDiskLoad(%d, n=%d): healthy %d > degraded %d", a, n, healthy, degraded)
			}
			if healthy < a/int64(n) {
				t.Errorf("parityDiskLoad(%d, n=%d): healthy %d below even split %d", a, n, healthy, a/int64(n))
			}
		}
	}
	if got := parityDiskLoad(12345, 0, 4, false); got != 12345 {
		t.Errorf("zero stripe: got %d, want identity", got)
	}
}

// TestVolumeParams pins the conversion's two branches: a non-parity shape
// is StripedParams byte for byte, a parity shape charges the healthy
// coalesced parity load across all members.
func TestVolumeParams(t *testing.T) {
	const T = 500 * time.Millisecond
	par := StreamParams{Rate: 187 << 10, Chunk: 64 << 10}
	raid0 := VolumeParams(T, par, VolumeShape{Disks: 4, StripeBytes: 32 << 10})
	want := StripedParams(T, par, 4, 32<<10)
	if raid0.DiskBytes != want.DiskBytes || raid0.Rate != want.Rate ||
		raid0.Chunk != want.Chunk {
		t.Errorf("non-parity VolumeParams = %+v, want StripedParams %+v", raid0, want)
	}
	p := VolumeParams(T, par, VolumeShape{Disks: 4, Parity: true, StripeBytes: 32 << 10})
	a := int64(T.Seconds()*par.Rate) + par.Chunk
	if want := parityDiskLoad(a, 32<<10, 4, false); p.DiskBytes != want {
		t.Errorf("parity VolumeParams DiskBytes = %d, want %d", p.DiskBytes, want)
	}
	// The parity charge per member can never be below the RAID-0 share of
	// the same fetch on one fewer member (n-1 data units per row).
	if p.DiskBytes < perDiskLoad(a, 32<<10, 4)-32<<10 {
		t.Errorf("parity DiskBytes %d implausibly low vs RAID-0 share %d", p.DiskBytes, perDiskLoad(a, 32<<10, 4))
	}
}

// maxShapeStreams is MaxStreams against AdmitShape: how many identical
// streams the shape admits.
func maxShapeStreams(a AdmissionParams, t sim.Time, budget int64, shape VolumeShape, s StreamParams) int {
	var set []StreamParams
	for {
		set = append(set, s)
		if a.AdmitShape(t, budget, shape, set) != nil {
			return len(set) - 1
		}
		if len(set) > 10000 {
			return len(set)
		}
	}
}

// TestAdmitShapeParity pins the honest degraded charge: with one member
// dead, the same stream population costs more per survivor, so the
// degraded shape admits no more streams than the healthy one — and the
// healthy parity shape admits no more than plain RAID-0 at equal member
// count (parity holes cost, redundancy is not free).
func TestAdmitShapeParity(t *testing.T) {
	a := testAdmission()
	const T = 500 * time.Millisecond
	const budget = 256 << 20
	mpeg1 := StreamParams{Rate: 187 << 10, Chunk: 64 << 10}
	shape := VolumeShape{Disks: 4, Parity: true, StripeBytes: 32 << 10}

	healthy := maxShapeStreams(a, T, budget, shape, VolumeParams(T, mpeg1, shape))
	degradedShape := shape
	degradedShape.Dead = 1
	degraded := maxShapeStreams(a, T, budget, degradedShape, VolumeParams(T, mpeg1, shape))
	raid0 := maxShapeStreams(a, T, budget, VolumeShape{Disks: 4, StripeBytes: 32 << 10},
		StripedParams(T, mpeg1, 4, 32<<10))

	if healthy < 1 || degraded < 1 {
		t.Fatalf("shapes admit nothing: healthy=%d degraded=%d", healthy, degraded)
	}
	if degraded > healthy {
		t.Errorf("degraded shape admits %d streams, healthy only %d", degraded, healthy)
	}
	if healthy > raid0 {
		t.Errorf("parity shape admits %d streams, RAID-0 %d — redundancy came out free", healthy, raid0)
	}
}

// TestAdmitShapeEdges pins the shape test's degenerate forms: no disks is
// a typed rejection, one disk is the single-disk test, and the RAID-0
// shape is AdmitVolume byte for byte.
func TestAdmitShapeEdges(t *testing.T) {
	a := testAdmission()
	const T = 500 * time.Millisecond
	mpeg1 := StreamParams{Rate: 187 << 10, Chunk: 64 << 10}
	set := []StreamParams{mpeg1, mpeg1}

	if err := a.AdmitShape(T, 1<<30, VolumeShape{}, set); err == nil {
		t.Errorf("zero-disk shape admitted")
	}
	one := a.AdmitShape(T, 1<<30, VolumeShape{Disks: 1}, set)
	plain := a.Admit(T, 1<<30, set)
	if (one == nil) != (plain == nil) {
		t.Errorf("one-disk shape %v, single-disk test %v", one, plain)
	}
	striped := []StreamParams{StripedParams(T, mpeg1, 4, 32<<10), StripedParams(T, mpeg1, 4, 32<<10)}
	av := a.AdmitVolume(T, 1<<30, 4, striped)
	as := a.AdmitShape(T, 1<<30, VolumeShape{Disks: 4}, striped)
	if (av == nil) != (as == nil) {
		t.Errorf("AdmitVolume %v, AdmitShape RAID-0 %v", av, as)
	}
	// Buffer exhaustion is still enforced under a shape.
	if err := a.AdmitShape(T, 1, VolumeShape{Disks: 4}, striped); err == nil {
		t.Errorf("1-byte budget admitted two streams")
	}
}
