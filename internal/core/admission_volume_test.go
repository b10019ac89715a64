package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// maxStripedStreams counts how many identical streams AdmitShape accepts on
// an ndisks-member RAID-0 volume with the given stripe unit, mirroring
// MaxStreams but through the striped conversion.
func maxStripedStreams(t sim.Time, a AdmissionParams, budget int64,
	par StreamParams, ndisks int, stripeBytes int64) int {
	var set []StreamParams
	for {
		set = append(set, VolumeParams(t, par, VolumeShape{Disks: ndisks, StripeBytes: stripeBytes}))
		if a.AdmitShape(t, budget, VolumeShape{Disks: ndisks}, set) != nil {
			return len(set) - 1
		}
		if len(set) > 10000 {
			return len(set)
		}
	}
}

// Striping multiplies capacity: with a generous buffer budget, the admitted
// count of identical MPEG2 streams must grow strictly from one disk to four
// and not shrink beyond, and the one-disk count must equal the single-disk
// test exactly (AdmitShape on one disk is Admit).
func TestAdmitVolumeCapacityScaling(t *testing.T) {
	a := table4()
	const interval = 500 * time.Millisecond
	const budget = 1 << 40 // effectively unbounded RAM: disk-time-limited
	const stripeBytes = 32 << 10
	par := mpeg2Params()

	counts := map[int]int{}
	for _, n := range []int{1, 2, 4, 8} {
		counts[n] = maxStripedStreams(interval, a, budget, par, n, stripeBytes)
		t.Logf("%d disks: %d streams", n, counts[n])
	}
	if counts[1] != a.MaxStreams(interval, budget, par) {
		t.Errorf("1-disk AdmitShape admits %d, single-disk Admit admits %d",
			counts[1], a.MaxStreams(interval, budget, par))
	}
	if !(counts[1] < counts[2] && counts[2] < counts[4]) {
		t.Errorf("admitted counts not strictly increasing 1→4 disks: %d, %d, %d",
			counts[1], counts[2], counts[4])
	}
	if counts[8] < counts[4] {
		t.Errorf("8 disks admit fewer streams (%d) than 4 (%d)", counts[8], counts[4])
	}
	// Speedup stays sublinear: per-member shares round up to whole stripe
	// units and every member still pays full per-operation overheads.
	if counts[4] > 4*counts[1] {
		t.Errorf("4-disk capacity %d exceeds 4x the 1-disk capacity %d", counts[4], counts[1])
	}
}

// The per-member bound is tight: filling every member with fixed-byte
// loads rejects one more candidate — naming the member in the error — and
// a cache-backed candidate, which loads no member, is still admitted.
func TestAdmitVolumePerDiskTightness(t *testing.T) {
	a := table4()
	const interval = 500 * time.Millisecond
	const budget = 1 << 40
	const ndisks = 4

	// Fill the members to just below their interval capacity with
	// fixed-byte loads; every stream loads every member.
	load := StreamParams{Chunk: 512 << 10, DiskBytes: 512 << 10}
	var set []StreamParams
	for a.AdmitShape(interval, budget, VolumeShape{Disks: ndisks}, append(set, load)) == nil {
		set = append(set, load)
		if len(set) > 1000 {
			t.Fatal("members never saturated")
		}
	}
	if len(set) == 0 {
		t.Fatal("not even one stream admitted")
	}

	// One more identical candidate is refused (by construction of the fill
	// loop), and the error names the member that fails first.
	err := a.AdmitShape(interval, budget, VolumeShape{Disks: ndisks}, append(set, load))
	if err == nil {
		t.Fatal("candidate on the saturated members was admitted")
	}
	if !strings.Contains(err.Error(), "disk 0") {
		t.Errorf("rejection does not name the saturated member: %v", err)
	}

	// Shared-path streams put no load on any member: giving the candidate
	// a shared charge admits it on the saturated volume.
	cached := load
	cached.Shared = 2 * load.Chunk
	if err := a.AdmitShape(interval, budget, VolumeShape{Disks: ndisks}, append(set, cached)); err != nil {
		t.Errorf("cache-backed stream charged disk time: %v", err)
	}
}

// Degenerate inputs are rejected rather than admitted vacuously.
func TestAdmitVolumeDegenerate(t *testing.T) {
	a := table4()
	const interval = 500 * time.Millisecond

	for _, n := range []int{0, -3} {
		err := a.AdmitShape(interval, 1<<30, VolumeShape{Disks: n}, []StreamParams{mpeg1Params()})
		if err == nil {
			t.Fatalf("AdmitShape with %d disks accepted a stream", n)
		}
		if !strings.Contains(err.Error(), "disks") {
			t.Errorf("unhelpful degenerate-volume error: %v", err)
		}
	}

	// A stream faster than one member's transfer rate is infeasible on a
	// single disk but fits once striped wide enough.
	hot := StreamParams{Rate: a.D * 1.5, Chunk: 64 << 10}
	if a.Admit(interval, 1<<40, []StreamParams{hot}) == nil {
		t.Fatal("stream faster than the disk admitted on one disk")
	}
	striped := VolumeParams(interval, hot, VolumeShape{Disks: 8, StripeBytes: 256 << 10})
	if err := a.AdmitShape(interval, 1<<40, VolumeShape{Disks: 8}, []StreamParams{striped}); err != nil {
		t.Errorf("1.5x-disk-rate stream rejected on 8 members: %v", err)
	}

	// The buffer budget stays global: a set that fits every member's disk
	// time is still refused when the aggregate double-buffer overflows RAM.
	par := VolumeParams(interval, mpeg1Params(), VolumeShape{Disks: 4, StripeBytes: 32 << 10})
	tiny := BufferPerStream(interval, par) - 1
	err := a.AdmitShape(interval, tiny, VolumeShape{Disks: 4}, []StreamParams{par})
	if err == nil {
		t.Fatal("buffer overflow admitted on a striped volume")
	}
	if !strings.Contains(err.Error(), "buffer memory exhausted") {
		t.Errorf("wrong rejection reason: %v", err)
	}
}

// VolumeParams on plain striping (perDiskLoad): identity on one disk,
// whole-stripe-unit granularity beyond, monotone non-increasing in member
// count, and never below an even split of the fetch window.
func TestStripedParamsShape(t *testing.T) {
	const interval = 500 * time.Millisecond
	par := mpeg2Params()
	if got := VolumeParams(interval, par, VolumeShape{Disks: 1, StripeBytes: 32 << 10}); !reflect.DeepEqual(got, par) {
		t.Fatalf("VolumeParams on 1 disk is not the identity: %+v", got)
	}

	a := int64(interval.Seconds()*par.Rate) + par.Chunk
	const stripe = int64(32 << 10)
	prev := int64(1 << 62)
	for _, n := range []int{2, 3, 4, 8, 16} {
		load := VolumeParams(interval, par, VolumeShape{Disks: n, StripeBytes: stripe}).DiskBytes
		if load%stripe != 0 {
			t.Errorf("n=%d: per-disk load %d not in whole stripe units", n, load)
		}
		if load*int64(n) < a {
			t.Errorf("n=%d: members together carry %d < fetch window %d", n, load*int64(n), a)
		}
		if load > prev {
			t.Errorf("n=%d: per-disk load %d grew from %d with more members", n, load, prev)
		}
		prev = load
	}
}
