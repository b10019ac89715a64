package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/propseed"
	"repro/internal/sim"
)

// refRequiredInterval, refAdmit and refAdmitShape are the admission test as
// it was before it became a fold: formula (1) summed over a materialized
// slice, and the per-member test over a scratch slice of fixed-bytes
// loads. They stay here as the oracle the fold must match bit for bit.
func refRequiredInterval(a AdmissionParams, streams []StreamParams) (sim.Time, error) {
	n := 0
	var rTotal float64
	var cTotal int64
	for _, s := range streams {
		if s.diskFree() {
			continue
		}
		n++
		rTotal += s.Rate
		cTotal += s.Chunk
	}
	if n == 0 {
		return 0, nil
	}
	if rTotal >= a.D {
		return 0, fmt.Errorf("core: aggregate rate %.0f B/s >= disk rate %.0f B/s", rTotal, a.D)
	}
	oTotal := a.TotalOverhead(n).Seconds()
	t := (oTotal*a.D + float64(cTotal)) / (a.D - rTotal)
	return sim.Time(t * float64(time.Second)), nil
}

func refAdmit(a AdmissionParams, t sim.Time, budget int64, streams []StreamParams) error {
	need, err := refRequiredInterval(a, streams)
	if err != nil {
		return &AdmissionError{Interval: t, NeedBuffer: TotalBuffer(t, streams), Budget: budget, Reason: err.Error()}
	}
	buf := TotalBuffer(t, streams)
	if need > t {
		return &AdmissionError{NeedInterval: need, Interval: t, NeedBuffer: buf, Budget: budget,
			Reason: "interval time too short for stream set"}
	}
	if buf > budget {
		return &AdmissionError{NeedInterval: need, Interval: t, NeedBuffer: buf, Budget: budget,
			Reason: "buffer memory exhausted"}
	}
	return nil
}

func refAdmitShape(a AdmissionParams, t sim.Time, budget int64, shape VolumeShape, streams []StreamParams) error {
	ndisks := shape.Disks
	if ndisks <= 0 {
		return &AdmissionError{Interval: t, Budget: budget, Reason: fmt.Sprintf("volume has %d disks", ndisks)}
	}
	if ndisks == 1 {
		return refAdmit(a, t, budget, streams)
	}
	var sub []StreamParams
	for _, s := range streams {
		if s.diskFree() {
			continue
		}
		sub = append(sub, StreamParams{Chunk: s.shapeLoad(t, shape)})
	}
	need, err := refRequiredInterval(a, sub)
	if err != nil {
		return &AdmissionError{Interval: t, NeedBuffer: TotalBuffer(t, streams), Budget: budget,
			Reason: fmt.Sprintf("disk 0: %v", err)}
	}
	if need > t {
		return &AdmissionError{NeedInterval: need, Interval: t,
			NeedBuffer: TotalBuffer(t, streams), Budget: budget,
			Reason: "interval time too short for stream set (disk 0)"}
	}
	if buf := TotalBuffer(t, streams); buf > budget {
		return &AdmissionError{Interval: t, NeedBuffer: buf, Budget: budget,
			Reason: "buffer memory exhausted"}
	}
	return nil
}

// refAdmissionSet is the server's admission set materialized the old way
// (the admissionSet builder): every open stream but st at its current
// charge, the dependents of st's shared paths at their plain charge.
func refAdmissionSet(s *Server, st *stream) []StreamParams {
	var set []StreamParams
	for _, other := range s.openStreams() {
		if other.closed || other == st {
			continue
		}
		par := other.par
		if st != nil && other.dep != nil && other.dep.producer == st {
			par = plainCharge(par)
		}
		set = append(set, par)
	}
	return set
}

// refAdmitLadder is admitLadder over the materialized set.
func refAdmitLadder(s *Server, st *stream, vel, want float64) (StreamParams, float64, error) {
	set := refAdmissionSet(s, st)
	try := func(dr float64) (StreamParams, error) {
		par := s.diskCharge(st.baseRate, vel, dr, st.par.Chunk)
		return par, refAdmitShape(s.cfg.Params, s.cfg.Interval, s.ramBudget(), s.volShape(), append(set, par))
	}
	par, err := try(want)
	if err == nil || st.record {
		return par, want, err
	}
	for dr, ok := s.ladderBelow(want); ok; dr, ok = s.ladderBelow(dr) {
		if p, e := try(dr); e == nil {
			return p, dr, nil
		}
	}
	return par, 0, err
}

// sameVerdict reports whether two admission results are the same verdict
// with every AdmissionError field equal.
func sameVerdict(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	g, gok := got.(*AdmissionError)
	w, wok := want.(*AdmissionError)
	return gok && wok && *g == *w
}

// Volume shapes the fold is checked on.
const (
	foldOneDisk = iota
	foldRAID0
	foldParity
	foldParityDegraded
	numFoldShapes
)

var foldShapeNames = [numFoldShapes]string{"one disk", "RAID-0", "parity", "degraded parity"}

// foldVolume builds a volume of the given shape on e.
func foldVolume(t testing.TB, e *sim.Engine, shape int) *disk.Volume {
	g, p := disk.ST32550N()
	g.Cylinders, g.Heads = 64, 2
	n := 4
	if shape == foldOneDisk {
		n = 1
	}
	members := make([]*disk.Disk, n)
	for i := range members {
		members[i] = disk.New(e, fmt.Sprintf("sd%d", i), g, p)
	}
	if shape == foldOneDisk {
		return disk.SingleVolume(members[0])
	}
	var vol *disk.Volume
	var err error
	if shape == foldRAID0 {
		vol, err = disk.NewVolume("vol0", members, 64)
	} else {
		vol, err = disk.NewParityVolume("vol0", members, 64)
	}
	if err != nil {
		t.Fatal(err)
	}
	if shape == foldParityDegraded {
		vol.SetDead(2, true)
	}
	return vol
}

// foldServer builds a server with no threads around a random open window:
// disk-fed streams at full or reduced delivered rate, shared-path
// dependents of earlier streams, paused streams, closed entries and
// streams at every health, behind a few already-closed history entries.
// Only the admission state is populated; the server never runs.
func foldServer(rng *rand.Rand, vol *disk.Volume, n int) *Server {
	s := &Server{vol: vol, cfg: Config{
		Params:       testAdmission(),
		Interval:     sim.Time(250+rng.Intn(1750)) * time.Millisecond,
		BufferBudget: int64(1+rng.Intn(24)) << 20,
		CacheBudget:  int64(rng.Intn(8)) << 20,
		PrefixBudget: int64(rng.Intn(4)) << 20,
		RateLadder:   []float64{0.25, 0.5},
	}}
	s.openFrom = rng.Intn(3)
	for i := 0; i < s.openFrom; i++ {
		s.streams = append(s.streams, &stream{id: i, closed: true})
	}
	ladder := []float64{1, 1, 0.5, 0.25}
	for i := 0; i < n; i++ {
		// Fractional rates, so a sum in another order differs in the last
		// bits.
		base := float64(60<<10+rng.Intn(400<<10)) + rng.Float64()
		if rng.Intn(40) == 0 {
			base = float64(3 << 20) // a stream that alone nearly saturates the disk
		}
		chunk := int64(4<<10 + rng.Intn(60<<10))
		dr := ladder[rng.Intn(len(ladder))]
		st := &stream{id: len(s.streams), baseRate: base, dr: dr, record: rng.Intn(10) == 0}
		st.par = s.diskCharge(base, 1, dr, chunk)
		switch k := rng.Intn(10); {
		case k < 3 && i > 0: // a dependent of an earlier stream
			g := &sharedPath{mode: shareMode(rng.Intn(int(numShareModes))), producer: s.streams[s.openFrom+rng.Intn(i)]}
			st.dep = g
			st.par = plainCharge(st.par)
			st.par.Shared = BufferPerStream(s.cfg.Interval, st.par) + int64(rng.Intn(1<<20))
		case k < 4:
			st.paused = true
			st.par.Paused = true
		}
		st.closed = rng.Intn(8) == 0
		st.health = StreamHealth(rng.Intn(int(Evicted)))
		s.streams = append(s.streams, st)
	}
	return s
}

// foldCandidate is a random candidate charge: disk-fed, shared or paused.
func foldCandidate(rng *rand.Rand, s *Server) StreamParams {
	par := s.diskCharge(float64(60<<10+rng.Intn(400<<10))+rng.Float64(), 1, 1, int64(4<<10+rng.Intn(60<<10)))
	switch rng.Intn(6) {
	case 0:
		par = plainCharge(par)
		par.Shared = BufferPerStream(s.cfg.Interval, par) + int64(rng.Intn(1<<20))
	case 1:
		par.Paused = true
	case 2:
		par = plainCharge(par)
	}
	return par
}

// TestAdmissionFoldMatchesMaterializedSet is the fold's oracle: on random
// servers over one disk, RAID-0, and healthy and degraded parity, every
// admission the server makes — an open (no exclusion), a re-admission of
// each open stream (itself excluded, its dependents at the plain charge),
// the ladder walk of resume and rate change, and the health-filtered
// re-evaluation after a member death — gives the same verdict, with every
// AdmissionError field equal, as the old test over a set materialized the
// old way. The exported Admit and AdmitShape are checked the same way on
// raw sets. The seed defaults to 20261018; PROP_SEED moves it
// (CI rotates it), and a failure names its seed and server.
func TestAdmissionFoldMatchesMaterializedSet(t *testing.T) {
	seed := propseed.Seed(t, 20261018)
	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEngine(1)
	var vols [numFoldShapes]*disk.Volume
	for shape := range vols {
		vols[shape] = foldVolume(t, e, shape)
	}
	reasons := map[string]int{}
	note := func(err error) {
		if ae, ok := err.(*AdmissionError); ok {
			r := ae.Reason
			if strings.HasPrefix(r, "core: aggregate rate") {
				r = "aggregate rate"
			}
			reasons[r]++
		} else {
			reasons["admitted"]++
		}
	}
	for server := 0; server < 200 && !t.Failed(); server++ {
		shape := server % numFoldShapes
		s := foldServer(rng, vols[shape], rng.Intn(40))
		fail := func(format string, args ...any) {
			t.Errorf("seed %d server %d (%s, %d open): %s", seed, server, foldShapeNames[shape],
				len(s.openStreams()), fmt.Sprintf(format, args...))
		}
		a, budget, volShape := s.cfg.Params, s.ramBudget(), s.volShape()
		// Opens and re-admissions.
		excl := append([]*stream{nil}, s.openStreams()...)
		for _, st := range excl {
			cand := foldCandidate(rng, s)
			f := s.admissionBase(st).with(cand)
			set := append(refAdmissionSet(s, st), cand)
			got := s.admit(f).err()
			want := refAdmitShape(a, s.cfg.Interval, budget, volShape, set)
			if !sameVerdict(got, want) {
				fail("re-admitting %v with %+v: fold %v, materialized %v", st, cand, got, want)
			}
			// The sums themselves, bit for bit: the rate in set order.
			var rTotal float64
			for _, p := range set {
				if !p.diskFree() {
					rTotal += p.Rate
				}
			}
			if f.rate != rTotal || f.members != len(set) || f.buf != TotalBuffer(s.cfg.Interval, set) {
				fail("re-admitting %v: fold sums rate %v over %d members, buffer %d; the set sums %v over %d, buffer %d",
					st, f.rate, f.members, f.buf, rTotal, len(set), TotalBuffer(s.cfg.Interval, set))
			}
			note(got)
		}
		// Ladder walks at both velocities a rate change uses.
		for _, st := range s.openStreams() {
			if st.closed || st.dep != nil {
				continue
			}
			for _, vel := range []float64{1, 2} {
				gp, gdr, gerr := s.admitLadder(st, vel, st.dr)
				wp, wdr, werr := refAdmitLadder(s, st, vel, st.dr)
				if gp != wp || gdr != wdr || !sameVerdict(gerr, werr) {
					fail("ladder of stream %d at velocity %v: fold (%+v, %v, %v), materialized (%+v, %v, %v)",
						st.id, vel, gp, gdr, gerr, wp, wdr, werr)
				}
			}
		}
		// The member-death re-evaluation's set: every open stream below
		// Suspended (reevaluateAdmission folds it the same way).
		f := admissionFold{t: s.cfg.Interval, shape: volShape}
		var set []StreamParams
		for _, st := range s.openStreams() {
			if !st.closed && st.health < Suspended {
				f.add(st.par)
				set = append(set, st.par)
			}
		}
		if got, want := s.admit(f).err(), refAdmitShape(a, s.cfg.Interval, budget, volShape, set); f.members != len(set) || !sameVerdict(got, want) {
			fail("re-evaluation of %d streams: fold %v (%d members), materialized %v", len(set), got, f.members, want)
		}
		// The exported tests over the raw set, on this shape and on a
		// volume with no disks.
		if got, want := a.AdmitShape(s.cfg.Interval, budget, volShape, set), refAdmitShape(a, s.cfg.Interval, budget, volShape, set); !sameVerdict(got, want) {
			fail("AdmitShape: %v, materialized %v", got, want)
		}
		if got, want := a.Admit(s.cfg.Interval, budget, set), refAdmit(a, s.cfg.Interval, budget, set); !sameVerdict(got, want) {
			fail("Admit: %v, materialized %v", got, want)
		}
		if got, want := a.AdmitShape(s.cfg.Interval, budget, VolumeShape{}, set), refAdmitShape(a, s.cfg.Interval, budget, VolumeShape{}, set); !sameVerdict(got, want) {
			fail("AdmitShape with no disks: %v, materialized %v", got, want)
		}
		gt, gok := requiredIntervalOf(a, set)
		wt, werr := refRequiredInterval(a, set)
		if gt != wt || gok != (werr == nil) {
			fail("required interval = %v, %v; materialized %v, %v", gt, gok, wt, werr)
		}
	}
	// The servers must reach every verdict the test can give.
	t.Logf("verdicts: %v", reasons)
	for _, r := range []string{"admitted", "buffer memory exhausted", "aggregate rate",
		"interval time too short for stream set", "interval time too short for stream set (disk 0)"} {
		if reasons[r] == 0 {
			t.Errorf("no admission ended %q", r)
		}
	}
}

// admissionBed is a server with 32 admitted, disk-fed streams on a 4-disk
// parity volume, and a candidate that fits beside them.
func admissionBed(t testing.TB) (*Server, StreamParams) {
	e := sim.NewEngine(1)
	s := &Server{vol: foldVolume(t, e, foldParity), cfg: Config{
		Params: testAdmission(), Interval: time.Second, BufferBudget: 1 << 30, RateLadder: []float64{0.25, 0.5},
	}}
	for i := 0; i < 32; i++ {
		s.streams = append(s.streams, &stream{id: i, baseRate: 8 << 10, dr: 1,
			par: s.diskCharge(8<<10, 1, 1, 2<<10)})
	}
	cand := s.diskCharge(8<<10, 1, 1, 2<<10)
	if err := s.admit(s.admissionBase(nil).with(cand)).err(); err != nil {
		t.Fatalf("the bed refuses its candidate: %v", err)
	}
	return s, cand
}

// TestAdmissionAllocatesNothing: an open's admission test and a ladder walk
// that admits fold the open window without allocating.
func TestAdmissionAllocatesNothing(t *testing.T) {
	s, cand := admissionBed(t)
	st := s.streams[7]
	var v verdict
	if n := testing.AllocsPerRun(100, func() { v = s.admit(s.admissionBase(nil).with(cand)) }); n != 0 || !v.ok() {
		t.Errorf("open admission: %v allocations per run (admitted %v), want 0", n, v.ok())
	}
	var err error
	if n := testing.AllocsPerRun(100, func() { _, _, err = s.admitLadder(st, 2, 1) }); n != 0 || err != nil {
		t.Errorf("admitLadder: %v allocations per run (err %v), want 0", n, err)
	}
}

// BenchmarkAdmission times one open's admission test on a server with 32
// open streams: the fold over the window plus the verdict.
func BenchmarkAdmission(b *testing.B) {
	s, cand := admissionBed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.admit(s.admissionBase(nil).with(cand)).ok() {
			b.Fatal("refused")
		}
	}
}
