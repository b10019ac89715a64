package rtm

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// Receivers that blocked first must be served first: wakeup order is the
// order in which threads queued on the port, regardless of send timing.
func TestPortReceiverWakeupFIFO(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	p := k.NewPort("fifo")
	type delivery struct {
		who string
		msg int
	}
	var got []delivery
	rx := func(name string, startDelay sim.Time) {
		k.NewThread(name, PrioTS, 0, func(th *Thread) {
			th.Sleep(startDelay)
			got = append(got, delivery{name, p.Receive(th).(int)})
		})
	}
	rx("r1", ms(1))
	rx("r2", ms(2))
	rx("r3", ms(3))
	e.At(ms(10), func() { p.Send(100); p.Send(200); p.Send(300) })
	e.Run()
	want := []delivery{{"r1", 100}, {"r2", 200}, {"r3", 300}}
	if len(got) != 3 {
		t.Fatalf("deliveries = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, want %+v (wakeup order not FIFO)", i, got[i], want[i])
		}
	}
}

// A message handed to a woken receiver belongs to that receiver: a second
// receiver arriving between the wakeup and the first receiver actually
// running finds the queue empty and waits for the next message.
func TestPortTryReceiveCannotStealHandoff(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	p := k.NewPort("handoff")
	got := map[string]int{}
	k.NewThread("rx1", PrioTS, 0, func(th *Thread) {
		got["rx1"] = p.Receive(th).(int)
	})
	e.At(ms(5), func() {
		p.Send(42)
		// rx1 has been woken but has not run yet; the message is in its
		// hand, not in the queue.
		if p.Len() != 0 {
			t.Errorf("handed-off message left in the queue (Len %d)", p.Len())
		}
	})
	k.NewThread("rx2", PrioTS, 0, func(th *Thread) {
		th.Sleep(ms(5)) // wakes after the send, before rx1 runs
		got["rx2"] = p.Receive(th).(int)
	})
	e.At(ms(6), func() { p.Send(43) })
	e.Run()
	if got["rx1"] != 42 || got["rx2"] != 43 {
		t.Fatalf("rx1 got %d, rx2 got %d; want 42, 43", got["rx1"], got["rx2"])
	}
}

// Queued messages stay FIFO when sends interleave with receives: some are
// taken from the queue, some handed straight to the blocked receiver.
func TestPortMessageFIFOInterleaved(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	p := k.NewPort("q")
	var got []int
	p.Send(1)
	p.Send(2)
	k.NewThread("rx", PrioTS, 0, func(th *Thread) {
		got = append(got, p.Receive(th).(int)) // 1, queued
		th.Sleep(ms(2))                        // 3 queues behind 2
		for len(got) < 4 {
			got = append(got, p.Receive(th).(int)) // 2 and 3 queued, 4 handed over
		}
	})
	e.At(ms(1), func() { p.Send(3) })
	e.At(ms(5), func() { p.Send(4) })
	e.Run()
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// With no server receiving, calls queue up to the capacity and the next
// is turned away; a server draining one call re-opens the queue.
func TestBoundedPortRejectsWhenFull(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	b := k.NewBoundedPort("bounded", 2)
	errs := make([]error, 4)
	returned := make([]bool, 4)
	call := func(i int, at sim.Time) {
		k.NewThread("client", PrioTS, 0, func(th *Thread) {
			th.Sleep(at)
			_, errs[i] = b.Call(th, i)
			returned[i] = true
		})
	}
	call(0, ms(1))
	call(1, ms(2))
	call(2, ms(3)) // over capacity
	k.NewThread("server", PrioTS, 0, func(th *Thread) {
		th.Sleep(ms(10))
		req, reply, ok := b.ReceiveCall(th) // takes call 0, freeing one slot
		if ok {
			reply(req)
		}
	})
	call(3, ms(20))
	e.Run()
	if !errors.Is(errs[2], ErrPortFull) {
		t.Fatalf("call over capacity = %v, want ErrPortFull", errs[2])
	}
	if !returned[0] || errs[0] != nil {
		t.Fatalf("served call returned %v, %v; want true, nil", returned[0], errs[0])
	}
	if returned[1] || returned[3] {
		t.Fatal("a queued call returned with no server to answer it")
	}
	if b.Rejected() != 1 || b.Len() != 2 {
		t.Fatalf("Rejected = %d, Len = %d; want 1, 2", b.Rejected(), b.Len())
	}
}

// A blocked server takes a call immediately, so the capacity bound only
// applies to the queue: with the server parked on the port, a call goes
// through even when a queued one fills the capacity behind it.
func TestBoundedPortWaiterBypassesQueueBound(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	b := k.NewBoundedPort("bounded", 1)
	var served []any
	k.NewThread("server", PrioTS, 0, func(th *Thread) {
		for {
			req, reply, ok := b.ReceiveCall(th)
			if !ok {
				return
			}
			served = append(served, req)
			reply(req)
		}
	})
	errs := make([]error, 3)
	for i := range errs {
		k.NewThread("client", PrioTS, 0, func(th *Thread) {
			th.Sleep(ms(5))
			_, errs[i] = b.Call(th, i)
		})
	}
	e.Run()
	// Call 0 is handed to the blocked server, call 1 queues (capacity 1,
	// queue empty), call 2 finds the queue full before the server runs.
	if errs[0] != nil || errs[1] != nil || !errors.Is(errs[2], ErrPortFull) {
		t.Fatalf("errs = %v, want [nil nil ErrPortFull]", errs)
	}
	if len(served) != 2 || served[0] != 0 || served[1] != 1 {
		t.Fatalf("served %v, want [0 1]", served)
	}
}

func TestBoundedPortCallFullAndDead(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	b := k.NewBoundedPort("svc", 1)
	var errOccupant, errFull, errDead error
	k.NewThread("occupant", PrioTS, 0, func(th *Thread) {
		_, errOccupant = b.Call(th, "occupant") // fills the queue; no server is receiving
	})
	k.NewThread("client", PrioTS, 0, func(th *Thread) {
		th.Sleep(ms(1))
		_, errFull = b.Call(th, "req")
		b.Destroy()
		_, errDead = b.Call(th, "req")
	})
	e.Run()
	if !errors.Is(errFull, ErrPortFull) {
		t.Fatalf("call against full queue = %v, want ErrPortFull", errFull)
	}
	if !errors.Is(errDead, ErrPortDead) {
		t.Fatalf("call against destroyed port = %v, want ErrPortDead", errDead)
	}
	if !errors.Is(errOccupant, ErrPortDead) {
		t.Fatalf("queued call at Destroy = %v, want ErrPortDead", errOccupant)
	}
	if b.Rejected() != 2 { // the queued call was accepted, then dropped
		t.Fatalf("Rejected = %d, want 2", b.Rejected())
	}
}

// Destroying a port with queued RPCs and blocked callers wakes every caller
// with ErrPortDead instead of leaving them blocked forever.
func TestBoundedPortDestroyWakesCallers(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	b := k.NewBoundedPort("svc", 8)
	errs := make([]error, 2)
	doneAt := make([]sim.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		k.NewThread("client", PrioTS, 0, func(th *Thread) {
			_, errs[i] = b.Call(th, i)
			doneAt[i] = k.Now()
		})
	}
	e.At(ms(30), func() { b.Destroy() })
	e.Run()
	for i := range errs {
		if !errors.Is(errs[i], ErrPortDead) {
			t.Fatalf("caller %d returned %v, want ErrPortDead", i, errs[i])
		}
		if doneAt[i] != ms(30) {
			t.Fatalf("caller %d woke at %v, want at Destroy (30ms)", i, doneAt[i])
		}
	}
}

// ReceiveCall reports destruction via ok=false — the server loop's exit
// signal — and a Receive on an already-destroyed one-way port returns a
// DeadName message instead of blocking.
func TestReceiveOnDestroyedPort(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	b := k.NewBoundedPort("svc", 4)
	exited := false
	k.NewThread("server", PrioTS, 0, func(th *Thread) {
		for {
			_, reply, ok := b.ReceiveCall(th)
			if !ok {
				exited = true
				return
			}
			reply(nil)
		}
	})
	e.At(ms(10), func() { b.Destroy() })
	e.Run()
	if !exited {
		t.Fatal("server loop did not exit on Destroy")
	}

	p := k.NewPort("late")
	p.Destroy()
	var got any
	k.NewThread("rx", PrioTS, 0, func(th *Thread) { got = p.Receive(th) })
	e.Run()
	dn, ok := got.(DeadName)
	if !ok || dn.Port != p {
		t.Fatalf("Receive on destroyed port = %v, want DeadName", got)
	}
}

func TestDeadNameNotification(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	client := k.NewPort("client")
	mgr := k.NewPort("manager")
	client.NotifyDeadName(mgr)
	var got any
	var at sim.Time
	k.NewThread("manager", PrioTS, 0, func(th *Thread) {
		got = mgr.Receive(th)
		at = k.Now()
	})
	e.At(ms(25), func() { client.Destroy() })
	e.Run()
	dn, ok := got.(DeadName)
	if !ok || dn.Port != client {
		t.Fatalf("manager received %v, want DeadName{client}", got)
	}
	if at != ms(25) {
		t.Fatalf("notification arrived at %v, want 25ms", at)
	}
	if !client.Dead() {
		t.Fatal("Dead() = false after Destroy")
	}
}

// A steady RPC-shaped exchange between two threads — two requests queued
// per round, each served with a CPU burst and answered on a reply port —
// allocates nothing: the ports keep their queue arrays, and each thread's
// wake-up and the CPU's burst end re-arm their own timers.
func TestPortPingPongAllocs(t *testing.T) {
	const rounds = 1000
	e := sim.NewEngine(1)
	k := NewKernel(e)
	req, rep := k.NewPort("req"), k.NewPort("rep")
	var msg any = struct{}{}
	k.NewThread("server", PrioRT, 0, func(th *Thread) {
		for {
			m := req.Receive(th)
			th.Compute(ms(1))
			rep.Send(m)
		}
	})
	k.NewThread("client", PrioTS, 0, func(th *Thread) {
		for i := 0; i < rounds+10; i++ {
			req.Send(msg)
			req.Send(msg)
			rep.Receive(th)
			rep.Receive(th)
		}
	})
	e.RunFor(ms(10)) // past the first rounds: every queue at its high-water mark
	if got := testing.AllocsPerRun(rounds, func() { e.RunFor(ms(2)) }); got != 0 {
		t.Fatalf("allocs per round = %v, want 0", got)
	}
}

// A call handed to a blocked server is the server's to answer even when
// the port is destroyed before the server runs; a call still queued behind
// it is dropped with ErrPortDead, and the server's next ReceiveCall reports
// the destruction.
func TestRPCAnswersCallTakenBeforeDestroy(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	b := k.NewBoundedPort("svc", 4)
	var served []any
	exited := false
	k.NewThread("server", PrioTS, 0, func(th *Thread) {
		for {
			req, reply, ok := b.ReceiveCall(th)
			if !ok {
				exited = true
				return
			}
			served = append(served, req)
			reply(req.(int) * 10)
		}
	})
	var resps [2]any
	var errs [2]error
	for i := range resps {
		k.NewThread("client", PrioTS, 0, func(th *Thread) {
			th.Sleep(ms(5))
			resps[i], errs[i] = b.Call(th, i+1)
		})
	}
	// At 5 ms call 1 is handed to the blocked server and call 2 queues;
	// the destroyer wakes after both and before the server runs.
	k.NewThread("destroyer", PrioTS, 0, func(th *Thread) {
		th.Sleep(ms(5))
		if b.Len() != 1 {
			t.Errorf("queued calls at Destroy = %d, want 1", b.Len())
		}
		b.Destroy()
	})
	e.Run()
	if errs[0] != nil || resps[0] != 10 {
		t.Fatalf("call taken before Destroy = %v, %v; want 10, nil", resps[0], errs[0])
	}
	if !errors.Is(errs[1], ErrPortDead) {
		t.Fatalf("queued call = %v, %v; want ErrPortDead", resps[1], errs[1])
	}
	if len(served) != 1 || served[0] != 1 || !exited {
		t.Fatalf("server served %v, exited %v; want [1], true", served, exited)
	}
}
