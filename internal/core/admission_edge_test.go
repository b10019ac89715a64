package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// edgeParams is a hand-built Table 4 with round numbers, so the formula
// boundaries in the cases below are exact.
func edgeParams() AdmissionParams {
	return AdmissionParams{
		D:        4e6, // 4 MB/s
		TseekMax: sim.Time(20 * time.Millisecond),
		TseekMin: sim.Time(2 * time.Millisecond),
		Trot:     sim.Time(11 * time.Millisecond),
		Tcmd:     sim.Time(1 * time.Millisecond),
		Bother:   64 << 10,
	}
}

func TestAdmissionEdgeCases(t *testing.T) {
	p := edgeParams()
	second := sim.Time(time.Second)
	mpeg1 := StreamParams{Rate: 187500, Chunk: 64 << 10} // the paper's 1.5 Mb/s stream

	cases := []struct {
		name     string
		interval sim.Time
		budget   int64
		streams  []StreamParams
		admit    bool
		reason   string // substring of AdmissionError.Reason when !admit
	}{
		{
			// Formula (1) with no streams needs no interval and no buffer:
			// the empty server admits trivially even with nothing configured.
			name:     "zero streams, zero interval, zero budget",
			interval: 0,
			budget:   0,
			streams:  nil,
			admit:    true,
		},
		{
			// A zero interval cannot absorb the fixed per-batch overheads
			// of formula (15), whatever the stream asks for.
			name:     "zero interval, one modest stream",
			interval: 0,
			budget:   64 << 20,
			streams:  []StreamParams{mpeg1},
			admit:    false,
			reason:   "interval time too short",
		},
		{
			// Formula (2) requires R_total strictly below D: a stream at
			// exactly the disk rate leaves no time for overheads at any T.
			name:     "rate exactly at the formula-(2) bound",
			interval: 10 * second,
			budget:   1 << 30,
			streams:  []StreamParams{{Rate: 4e6, Chunk: 64 << 10}},
			admit:    false,
			reason:   "aggregate rate",
		},
		{
			// Split across two streams the aggregate still sits exactly on
			// the bound; the test is about the sum, not any one stream.
			name:     "aggregate rate exactly at the bound across streams",
			interval: 10 * second,
			budget:   1 << 30,
			streams:  []StreamParams{{Rate: 2e6, Chunk: 32 << 10}, {Rate: 2e6, Chunk: 32 << 10}},
			admit:    false,
			reason:   "aggregate rate",
		},
		{
			// Just below the bound the formula yields a finite (huge)
			// interval; a 10-minute T with a deep buffer really admits it.
			name:     "rate just below the bound",
			interval: 600 * second,
			budget:   1 << 40,
			streams:  []StreamParams{{Rate: 4e6 - 8e3, Chunk: 64 << 10}},
			admit:    true,
		},
		{
			// A sufficient interval but a starved buffer budget fails on
			// formula (8), not on the rate test.
			name:     "buffer budget exhausted",
			interval: second,
			budget:   100, // B_i alone is ~2*(T*R+C) ≫ 100
			streams:  []StreamParams{mpeg1},
			admit:    false,
			reason:   "buffer memory exhausted",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := p.Admit(tc.interval, tc.budget, tc.streams)
			if tc.admit {
				if err != nil {
					t.Fatalf("Admit = %v, want admit", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Admit succeeded, want rejection")
			}
			var ae *AdmissionError
			if !errors.As(err, &ae) {
				t.Fatalf("Admit error type %T, want *AdmissionError", err)
			}
			if !strings.Contains(ae.Reason, tc.reason) {
				t.Fatalf("Reason = %q, want substring %q", ae.Reason, tc.reason)
			}
		})
	}
}

func TestRequiredIntervalEdges(t *testing.T) {
	p := edgeParams()

	if got, ok := requiredIntervalOf(p, nil); !ok || got != 0 {
		t.Errorf("required interval of no streams = %v, %v; want 0, true", got, ok)
	}

	// At the bound the formula divides by zero; the implementation must
	// reject instead.
	if _, ok := requiredIntervalOf(p, []StreamParams{{Rate: p.D, Chunk: 1}}); ok {
		t.Error("required interval at R_total == D should fail")
	}

	// The returned minimum interval is itself admissible, and shaving it
	// is not: T_min is tight.
	streams := []StreamParams{{Rate: 1e6, Chunk: 64 << 10}, {Rate: 5e5, Chunk: 32 << 10}}
	tmin, ok := requiredIntervalOf(p, streams)
	if !ok {
		t.Fatal("required interval refused two streams")
	}
	if tmin <= 0 {
		t.Fatalf("required interval = %v, want > 0", tmin)
	}
	if err := p.Admit(tmin, 1<<40, streams); err != nil {
		t.Errorf("Admit at T_min: %v, want admit", err)
	}
	if err := p.Admit(tmin-sim.Time(time.Millisecond), 1<<40, streams); err == nil {
		t.Error("Admit just below T_min succeeded, want rejection")
	}
}

func TestOtherTrafficSaturatesInterval(t *testing.T) {
	p := edgeParams()
	second := sim.Time(time.Second)
	stream := []StreamParams{{Rate: 187500, Chunk: 64 << 10}}

	// With modest other traffic the one-second interval admits the stream.
	if err := p.Admit(second, 64<<20, stream); err != nil {
		t.Fatalf("baseline Admit: %v, want admit", err)
	}

	// Formula (9): O_other grows linearly in B_other. Blow it up until the
	// overhead alone consumes the whole interval — one 4 MB non-real-time
	// block takes a full second of disk time at D = 4 MB/s.
	p.Bother = 4 << 20
	if got := p.OtherOverhead(); got <= second {
		t.Fatalf("OtherOverhead = %v, want > 1s with saturating B_other", got)
	}
	err := p.Admit(second, 64<<20, stream)
	if err == nil {
		t.Fatal("Admit succeeded with other-traffic overhead exceeding the interval")
	}
	var ae *AdmissionError
	if !errors.As(err, &ae) || !strings.Contains(ae.Reason, "interval time too short") {
		t.Fatalf("error = %v, want interval-too-short AdmissionError", err)
	}
}

func TestOverheadFormulaEdges(t *testing.T) {
	p := edgeParams()

	// Formulas (11)-(12) at the batch-size corners.
	if got := p.SeekOverhead(0); got != 0 {
		t.Errorf("SeekOverhead(0) = %v, want 0", got)
	}
	if got := p.SeekOverhead(1); got != p.TseekMax {
		t.Errorf("SeekOverhead(1) = %v, want TseekMax %v", got, p.TseekMax)
	}
	if got, want := p.SeekOverhead(2), 2*p.TseekMax; got != want {
		t.Errorf("SeekOverhead(2) = %v, want %v", got, want)
	}
	if got, want := p.SeekOverhead(5), 2*p.TseekMax+3*p.TseekMin; got != want {
		t.Errorf("SeekOverhead(5) = %v, want %v", got, want)
	}

	if got := p.TotalOverhead(0); got != 0 {
		t.Errorf("TotalOverhead(0) = %v, want 0", got)
	}
	if p.TotalOverhead(2) <= p.TotalOverhead(1) {
		t.Error("TotalOverhead must grow with the batch")
	}

	// Formula (7): double-buffering one interval of data plus chunk slack.
	s := StreamParams{Rate: 1e6, Chunk: 1 << 16}
	tI := sim.Time(time.Second)
	if got, want := BufferPerStream(tI, s), int64(2*(1e6+1<<16)); got != want {
		t.Errorf("BufferPerStream = %d, want %d", got, want)
	}
	if got := TotalBuffer(tI, nil); got != 0 {
		t.Errorf("TotalBuffer(nil) = %d, want 0", got)
	}
}
