package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(ms(25))
		wake = e.Now()
	})
	e.Run()
	if wake != ms(25) {
		t.Fatalf("woke at %v, want 25ms", wake)
	}
}

func TestProcSequentialSemantics(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Sleep(ms(10))
		trace = append(trace, "a2")
		p.Sleep(ms(10))
		trace = append(trace, "a3")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b1")
		p.Sleep(ms(15))
		trace = append(trace, "b2")
	})
	e.Run()
	want := []string{"a1", "b1", "a2", "b2", "a3"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcBlockUnblock(t *testing.T) {
	e := NewEngine(1)
	var resumedAt Time
	p := e.Spawn("worker", func(p *Proc) {
		p.Block("waiting for signal")
		resumedAt = e.Now()
	})
	e.At(ms(40), func() { p.Unblock() })
	e.Run()
	if resumedAt != ms(40) {
		t.Fatalf("resumed at %v, want 40ms", resumedAt)
	}
}

func TestProcUnblockBeforeBlockIsNotLost(t *testing.T) {
	e := NewEngine(1)
	done := false
	var p *Proc
	p = e.Spawn("late-blocker", func(pp *Proc) {
		pp.Sleep(ms(10)) // the wakeup arrives while we sleep
		pp.Block("should consume pending token")
		done = true
	})
	e.At(ms(5), func() { p.Unblock() })
	e.RunUntil(ms(100))
	if !done {
		t.Fatal("pending wakeup token was lost; process still blocked")
	}
}

func TestProcBlockedReason(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("w", func(p *Proc) { p.Block("io") })
	e.At(ms(1), func() {
		if got := p.BlockedReason(); got != "io" {
			t.Errorf("BlockedReason = %q, want io", got)
		}
	})
	e.RunUntil(ms(2))
}

func TestProcDeadAfterReturn(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("short", func(p *Proc) {})
	e.Run()
	if !p.Dead() {
		t.Fatal("process should be dead after body returns")
	}
	p.Unblock() // must be a no-op, not a hang or panic
}

func TestProcPanicPropagates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		yield int // Sleeps before the panic
	}{{"bomb", 0}, {"late-bomb", 5}} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			e.Spawn("bystander", func(p *Proc) {
				for {
					p.Sleep(ms(1))
				}
			})
			p := e.Spawn(tc.name, func(p *Proc) {
				for i := 0; i < tc.yield; i++ {
					p.Sleep(ms(1))
				}
				panic("boom")
			})
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("process panic did not propagate to Run")
				}
				msg := fmt.Sprint(r)
				if want := fmt.Sprintf("sim: process %q panicked: boom", tc.name); msg != want {
					t.Fatalf("panic = %q, want %q", msg, want)
				}
				if !p.Dead() {
					t.Error("panicked process is not marked dead")
				}
				if e.Now() != ms(tc.yield) {
					t.Errorf("panic surfaced at %v, want %v", e.Now(), ms(tc.yield))
				}
			}()
			e.Run()
		})
	}
}

// A runtime.Goexit inside a process body ends the goroutine that drives the
// engine: Run never returns to its caller.
func TestProcGoexitEndsEngineGoroutine(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("quitter", func(p *Proc) {
		p.Sleep(ms(1))
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned normally after the process called Goexit")
	}
	if !p.Dead() {
		t.Fatal("process that called Goexit is not marked dead")
	}
}

func TestSleepUntil(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Spawn("s", func(p *Proc) {
		p.SleepUntil(ms(30))
		at = e.Now()
	})
	e.Run()
	if at != ms(30) {
		t.Fatalf("woke at %v, want 30ms", at)
	}
}

func TestWaiterFIFO(t *testing.T) {
	e := NewEngine(1)
	w := NewWaiter("q")
	var order []string
	mk := func(name string) {
		e.Spawn(name, func(p *Proc) {
			w.Wait(p)
			order = append(order, name)
		})
	}
	mk("first")
	mk("second")
	mk("third")
	e.At(ms(10), func() { w.WakeOne() })
	e.At(ms(20), func() { w.WakeAll() })
	e.Run()
	if len(order) != 3 || order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Fatalf("wake order = %v", order)
	}
}

func TestWaiterWakeOneOnEmpty(t *testing.T) {
	w := NewWaiter("empty")
	if w.WakeOne() {
		t.Fatal("WakeOne on empty waiter reported true")
	}
	if n := w.WakeAll(); n != 0 {
		t.Fatalf("WakeAll on empty waiter = %d", n)
	}
}

func TestManyProcsNoGoroutineDeadlock(t *testing.T) {
	e := NewEngine(1)
	total := 0
	for i := 0; i < 200; i++ {
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(time.Millisecond)
			}
			total++
		})
	}
	e.Run()
	if total != 200 {
		t.Fatalf("completed %d procs, want 200", total)
	}
}

// A process's coroutine is created when it is first dispatched: spawned
// processes that never run hold no goroutine, so an engine dropped before
// they start can be collected with everything they reference.
func TestSpawnStartsNoGoroutineBeforeDispatch(t *testing.T) {
	e := NewEngine(1)
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e.Spawn("idle", func(p *Proc) {})
	}
	if got := runtime.NumGoroutine() - base; got > 0 {
		t.Fatalf("%d goroutines started by Spawn before any dispatch", got)
	}
	e.Run()
}

func TestProcHandoffAllocs(t *testing.T) {
	const runs = 1000
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < runs+10; i++ {
			p.Sleep(1)
		}
	})
	e.Step() // start the process; it parks in its first Sleep
	// One Step resumes the process, which re-arms its own wake-up timer
	// and switches back.
	if got := testing.AllocsPerRun(runs, func() { e.Step() }); got != 0 {
		t.Fatalf("allocs per Sleep switch = %v, want 0", got)
	}
	e.Run()
}

// Coroutine switches never enter the Go scheduler, so Proc.run hands it a
// turn every few dispatches; without that, on one P another goroutine (the
// GC's mark worker, say) would run only at the preemption tick.
func TestProcYieldsToGoScheduler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 20000
	var turns atomic.Int64
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			turns.Add(1)
			runtime.Gosched()
		}
	}()
	for turns.Load() == 0 {
		runtime.Gosched()
	}
	e := NewEngine(1)
	e.Spawn("spinner", func(p *Proc) {
		for i := 0; i < n-1; i++ {
			p.Sleep(1)
		}
	})
	base := turns.Load()
	e.Run()
	got := turns.Load() - base
	stop.Store(true)
	<-done
	if got < n/16 {
		t.Fatalf("side goroutine got %d turns during %d dispatches, want >= %d", got, n, n/16)
	}
}

func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	e.Step() // start the process; it parks in its first Sleep
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
