package rtm

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(n) * time.Millisecond }

func TestSingleThreadComputeTakesExactTime(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	var done sim.Time
	k.NewThread("solo", PrioTS, 0, func(th *Thread) {
		th.Compute(ms(42))
		done = k.Now()
	})
	e.Run()
	if done != ms(42) {
		t.Fatalf("compute finished at %v, want 42ms", done)
	}
}

func TestComputeZeroIsNoop(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	var done sim.Time
	k.NewThread("z", PrioTS, 0, func(th *Thread) {
		th.Compute(0)
		th.Compute(-ms(5))
		done = k.Now()
	})
	e.Run()
	if done != 0 {
		t.Fatalf("zero compute advanced time to %v", done)
	}
}

func TestFixedPriorityPreemption(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	var loDone, hiDone sim.Time
	k.NewThread("lo", PrioTS, 0, func(th *Thread) {
		th.Compute(ms(100))
		loDone = k.Now()
	})
	k.NewThread("hi", PrioRT, 0, func(th *Thread) {
		th.Sleep(ms(10))
		th.Compute(ms(20))
		hiDone = k.Now()
	})
	e.Run()
	if hiDone != ms(30) {
		t.Fatalf("hi finished at %v, want 30ms (instant preemption)", hiDone)
	}
	if loDone != ms(120) {
		t.Fatalf("lo finished at %v, want 120ms (100 work + 20 preempted)", loDone)
	}
	if k.Preemptions() != 1 {
		t.Fatalf("preemptions = %d, want 1", k.Preemptions())
	}
}

func TestEqualPriorityFIFORunToCompletion(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	var first, second sim.Time
	k.NewThread("a", PrioTS, 0, func(th *Thread) {
		th.Compute(ms(30))
		first = k.Now()
	})
	k.NewThread("b", PrioTS, 0, func(th *Thread) {
		th.Compute(ms(30))
		second = k.Now()
	})
	e.Run()
	if first != ms(30) || second != ms(60) {
		t.Fatalf("a=%v b=%v, want 30ms/60ms (no time slicing at quantum 0)", first, second)
	}
}

func TestRoundRobinInterleaves(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	var first, second sim.Time
	k.NewThread("a", PrioTS, ms(10), func(th *Thread) {
		th.Compute(ms(30))
		first = k.Now()
	})
	k.NewThread("b", PrioTS, ms(10), func(th *Thread) {
		th.Compute(ms(30))
		second = k.Now()
	})
	e.Run()
	// a: [0,10) [20,30) [40,50); b: [10,20) [30,40) [50,60)
	if first != ms(50) || second != ms(60) {
		t.Fatalf("a=%v b=%v, want 50ms/60ms under RR", first, second)
	}
	if k.quantumRounds == 0 {
		t.Fatal("no quantum expirations recorded")
	}
}

func TestRoundRobinDispatchLatencyExceedsFixedPriority(t *testing.T) {
	run := func(quantum sim.Time, prio int) sim.Time {
		e := sim.NewEngine(1)
		k := NewKernel(e)
		for i := 0; i < 3; i++ {
			k.NewThread("hog", PrioTS, quantum, func(th *Thread) {
				for j := 0; j < 100; j++ {
					th.Compute(ms(20))
				}
			})
		}
		var victim *Thread
		victim = k.NewThread("rt", prio, quantum, func(th *Thread) {
			for j := 0; j < 20; j++ {
				th.Sleep(ms(50))
				th.Compute(ms(1))
			}
		})
		e.RunUntil(sim.Time(3) * time.Second)
		return victim.MaxDispatchWait()
	}
	rr := run(ms(10), PrioTS)
	fp := run(0, PrioRT)
	if fp != 0 {
		t.Fatalf("fixed-priority RT thread waited %v for the CPU, want 0", fp)
	}
	if rr < ms(10) {
		t.Fatalf("round-robin victim max wait %v, want >= one quantum", rr)
	}
}

func TestPreemptedThreadResumesBeforeQueuedEquals(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	var order []string
	k.NewThread("victim", PrioTS, 0, func(th *Thread) {
		th.Compute(ms(40))
		order = append(order, "victim")
	})
	k.NewThread("late-equal", PrioTS, 0, func(th *Thread) {
		th.Sleep(ms(5))
		th.Compute(ms(10))
		order = append(order, "late-equal")
	})
	k.NewThread("hi", PrioRT, 0, func(th *Thread) {
		th.Sleep(ms(10))
		th.Compute(ms(10))
		order = append(order, "hi")
	})
	e.Run()
	if len(order) != 3 || order[0] != "hi" || order[1] != "victim" || order[2] != "late-equal" {
		t.Fatalf("completion order = %v, want [hi victim late-equal]", order)
	}
}

func TestCPUAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	lo := k.NewThread("lo", PrioTS, 0, func(th *Thread) { th.Compute(ms(50)) })
	hi := k.NewThread("hi", PrioRT, 0, func(th *Thread) {
		th.Sleep(ms(10))
		th.Compute(ms(10))
	})
	e.Run()
	if lo.CPUUsed() != ms(50) {
		t.Fatalf("lo CPUUsed = %v, want 50ms", lo.CPUUsed())
	}
	if hi.CPUUsed() != ms(10) {
		t.Fatalf("hi CPUUsed = %v, want 10ms", hi.CPUUsed())
	}
}

func TestRunningAndReadyCount(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	k.NewThread("a", PrioTS, 0, func(th *Thread) { th.Compute(ms(20)) })
	k.NewThread("b", PrioTS, 0, func(th *Thread) { th.Compute(ms(20)) })
	e.At(ms(5), func() {
		if k.Running() == nil || k.Running().Name() != "a" {
			t.Error("thread a should be running at 5ms")
		}
		if k.ReadyCount() != 1 {
			t.Errorf("ReadyCount = %d, want 1", k.ReadyCount())
		}
	})
	e.Run()
	if k.Running() != nil {
		t.Fatal("CPU should be idle at end")
	}
}

func TestInvalidPriorityPanics(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range priority did not panic")
		}
	}()
	k.NewThread("bad", 500, 0, func(th *Thread) {})
}

func TestThreadStateTransitions(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	th := k.NewThread("s", PrioTS, 0, func(th *Thread) {
		th.Sleep(ms(20))
	})
	if th.State() != StateNew {
		t.Fatalf("state before start = %v, want new", th.State())
	}
	e.At(ms(10), func() {
		if th.State() != StateBlocked {
			t.Errorf("state during sleep = %v, want blocked", th.State())
		}
	})
	e.Run()
	if th.State() != StateDone {
		t.Fatalf("state at end = %v, want done", th.State())
	}
	if StateRunnable.String() != "runnable" || ThreadState(99).String() != "invalid" {
		t.Fatal("ThreadState.String misbehaves")
	}
}
