package rtm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func us(n int) sim.Time { return sim.Time(n) * time.Microsecond }

// completion is a scripted device-completion message; nil is the shutdown
// wakeup, as on CRAS's I/O-done port.
type completion int

const completionCost = 50 * time.Microsecond

// ioDoneRun is one run of the scripted completion pattern: the event trace
// (every engine step and every handled message) and the scheduler
// statistics of every thread.
type ioDoneRun struct {
	trace []string
	stats []string
}

// runIODonePattern drives one I/O-done thread — the coroutine loop CRAS's
// cras.iodone ran before it became a handler, or the handler — through one
// scripted pattern:
//
//   - completions sent from interrupt context, several at one instant and
//     some while the thread is still computing (they queue);
//   - a higher-priority thread whose wake-up lands exactly at the end of the
//     I/O-done burst (the preempt-at-completion path) and a lower-priority
//     periodic thread the I/O-done thread preempts;
//   - a second wakeup sent with a completion, which leaves a wake token the
//     thread consumes at its next park (its Compute returns at once, and the
//     burst's end later wakes it spuriously on the port).
func runIODonePattern(asHandler bool, quantum sim.Time) ioDoneRun {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	port := k.NewPort("iodone")
	var run ioDoneRun
	logf := func(format string, args ...any) {
		run.trace = append(run.trace, fmt.Sprintf("%v ", k.Now())+fmt.Sprintf(format, args...))
	}

	stopping := false
	var handled []completion
	var io *Thread
	if asHandler {
		io = k.NewHandler("iodone", PrioRT+1, quantum, port,
			func(m any) sim.Time {
				if _, ok := m.(completion); ok {
					return completionCost
				}
				return 0
			},
			func(m any) bool {
				if c, ok := m.(completion); ok {
					handled = append(handled, c)
					logf("handled %d", c)
				}
				return !stopping
			})
	} else {
		io = k.NewThread("iodone", PrioRT+1, quantum, func(t *Thread) {
			for !stopping {
				switch m := port.Receive(t).(type) {
				case completion:
					t.Compute(completionCost)
					handled = append(handled, m)
					logf("handled %d", m)
				default:
					continue // shutdown wakeup
				}
			}
		})
	}

	// Higher priority: wakes at 150µs, the instant the first completion's
	// burst (100–150µs) ends; its wake-up was scheduled first, so it runs
	// before the burst-end event and preempts with nothing left to serve.
	hi := k.NewThread("hi", PrioRT+2, quantum, func(t *Thread) {
		for _, at := range []int{150, 420, 900} {
			t.SleepUntil(us(at))
			t.Compute(us(20))
			logf("hi done")
		}
	})
	// Lower priority: a periodic computation the completions preempt.
	lo := k.NewPeriodicThread(PeriodicConfig{Name: "lo", Priority: PrioRT, Quantum: quantum, Period: us(250)},
		func(t *Thread, cycle int) bool {
			t.Compute(us(120))
			logf("lo cycle %d", cycle)
			return cycle < 6
		})

	send := func(at int, msgs ...any) {
		e.At(us(at), func() {
			for _, m := range msgs {
				port.Send(m)
			}
		})
	}
	send(100, completion(1))
	send(130, completion(2), completion(3)) // queue behind the running burst
	send(400, completion(4))
	// The wake token: a completion hands the parked thread its message and
	// a second wakeup arrives before it has run.
	e.At(us(600), func() {
		port.Send(completion(5))
		io.wake()
	})
	send(605, completion(6))
	send(1000, completion(7), completion(8))
	e.At(us(1600), func() {
		stopping = true
		port.Send(nil)
	})

	for e.Step() {
		running := "-"
		if r := k.Running(); r != nil {
			running = r.Name()
		}
		logf("step running=%s ready=%d io=%v", running, k.ReadyCount(), io.State())
	}
	for _, th := range []*Thread{io, hi, lo} {
		run.stats = append(run.stats, fmt.Sprintf("%s: state=%v cpu=%v maxWait=%v totalWait=%v computes=%d",
			th.Name(), th.State(), th.CPUUsed(), th.MaxDispatchWait(), th.TotalDispatchWait(), th.computeCalls))
	}
	run.stats = append(run.stats, fmt.Sprintf("kernel: preemptions=%d dispatches=%d quantumRounds=%d handled=%v",
		k.preemptions, k.dispatches, k.quantumRounds, handled))
	return run
}

// TestHandlerMatchesCoroutineLoop is the handler thread's oracle: the
// scripted completion pattern run through the coroutine loop and through
// the handler fires the same events at the same times in the same order
// and leaves equal CPU and dispatch-wait statistics, under fixed-priority
// and round-robin scheduling.
func TestHandlerMatchesCoroutineLoop(t *testing.T) {
	for _, quantum := range []sim.Time{0, us(30)} {
		t.Run(fmt.Sprintf("quantum=%v", quantum), func(t *testing.T) {
			want := runIODonePattern(false, quantum)
			got := runIODonePattern(true, quantum)
			if g, w := strings.Join(got.trace, "\n"), strings.Join(want.trace, "\n"); g != w {
				for i := range min(len(got.trace), len(want.trace)) {
					if got.trace[i] != want.trace[i] {
						t.Fatalf("trace diverges at line %d:\nhandler:   %s\ncoroutine: %s", i, got.trace[i], want.trace[i])
					}
				}
				t.Fatalf("trace lengths differ: handler %d lines, coroutine %d", len(got.trace), len(want.trace))
			}
			if g, w := strings.Join(got.stats, "\n"), strings.Join(want.stats, "\n"); g != w {
				t.Fatalf("statistics differ:\nhandler:\n%s\ncoroutine:\n%s", g, w)
			}
			t.Logf("%d trace lines\n%s", len(got.trace), strings.Join(got.stats, "\n"))
		})
	}
}

// TestIODonePatternCoversItsCases checks that the scripted pattern reaches
// the paths it is meant to: the preemption at burst end (the first
// completion is handled at 150µs, the instant the higher-priority thread
// takes the CPU for its 20µs), the wake token (completion 5 is handled the instant it arrives,
// before any CPU is granted), every completion handled and every thread
// finished.
func TestIODonePatternCoversItsCases(t *testing.T) {
	run := runIODonePattern(true, 0)
	trace := strings.Join(run.trace, "\n")
	for _, line := range []string{
		"150µs handled 1",
		"170µs hi done",
		"600µs handled 5",
	} {
		if !strings.Contains(trace, line+"\n") {
			t.Errorf("trace has no %q", line)
		}
	}
	for _, s := range run.stats[:3] {
		if !strings.Contains(s, "state=done") {
			t.Errorf("thread did not finish: %s", s)
		}
	}
	if last := run.stats[3]; !strings.Contains(last, "handled=[1 2 3 4 5 6 7 8]") {
		t.Errorf("not every completion handled in order: %s", last)
	}
}

// TestHandlerEndsOnDeadPort: destroying the port ends a handler parked on
// it without calling its callback.
func TestHandlerEndsOnDeadPort(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	port := k.NewPort("p")
	calls := 0
	h := k.NewHandler("h", PrioRT, 0, port, func(any) sim.Time { return 0 },
		func(any) bool { calls++; return true })
	e.At(ms(1), func() { port.Send(1) })
	e.At(ms(2), port.Destroy)
	e.Run()
	if calls != 1 || h.State() != StateDone || h.Proc() != nil {
		t.Fatalf("calls=%d state=%v proc=%v, want 1 call, done, no proc", calls, h.State(), h.Proc())
	}
}

// BenchmarkHandlerHandoff times one interrupt-context send to a parked
// handler and the handler's resumption: the handler counterpart of sim's
// BenchmarkProcHandoff. Each op is two events (the send, the resumption).
func BenchmarkHandlerHandoff(b *testing.B) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	port := k.NewPort("p")
	k.NewHandler("h", PrioRT, 0, port, func(any) sim.Time { return 0 }, func(any) bool { return true })
	e.Step() // start the handler; it parks on its port
	var tick sim.Timer
	var send func()
	n := 0
	send = func() {
		port.Send(nil)
		if n++; n < b.N {
			e.Schedule(&tick, e.Now()+1, send)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	send()
	e.Run()
}

// BenchmarkCall times one call through an RPC port between a client and a
// server thread: the hand-off, two coroutine switches and the reply.
func BenchmarkCall(b *testing.B) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	port := NewRPC[int, int]("p", 64)
	k.NewThread("server", PrioRT, 0, func(th *Thread) {
		for {
			req, reply, ok := port.ReceiveCall(th)
			if !ok {
				return
			}
			reply(req)
		}
	})
	k.NewThread("client", PrioRTLow, 0, func(th *Thread) {
		if _, err := port.Call(th, 0); err != nil { // the first call makes the call record
			b.Error(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := port.Call(th, i); err != nil {
				b.Error(err)
			}
		}
		b.StopTimer()
		port.Destroy()
	})
	e.Run()
}
