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

// A message handed to a woken receiver belongs to that receiver: a
// TryReceive racing in between the wakeup and the receiver actually running
// must not steal it.
func TestPortTryReceiveCannotStealHandoff(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	p := k.NewPort("handoff")
	var got int
	k.NewThread("rx", PrioTS, 0, func(th *Thread) {
		got = p.Receive(th).(int)
	})
	e.At(ms(5), func() {
		p.Send(42)
		// The receiver has been woken but has not run yet; the message is
		// in its hand, not in the queue.
		if m, ok := p.TryReceive(); ok {
			t.Errorf("TryReceive stole handed-off message %v", m)
		}
	})
	e.Run()
	if got != 42 {
		t.Fatalf("receiver got %d, want 42", got)
	}
}

// Queued messages stay FIFO under interleaved Send and TryReceive from
// interrupt context.
func TestPortMessageFIFOInterleaved(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	p := k.NewPort("q")
	var got []int
	take := func() {
		if m, ok := p.TryReceive(); ok {
			got = append(got, m.(int))
		}
	}
	p.Send(1)
	p.Send(2)
	take() // 1
	p.Send(3)
	take() // 2
	take() // 3
	p.Send(4)
	take() // 4
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

func TestBoundedPortRejectsWhenFull(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	b := k.NewBoundedPort("bounded", 2)
	if !b.Send(1) || !b.Send(2) {
		t.Fatal("sends under capacity rejected")
	}
	if b.Send(3) {
		t.Fatal("send over capacity accepted")
	}
	if b.Rejected() != 1 || b.Len() != 2 {
		t.Fatalf("Rejected = %d, Len = %d; want 1, 2", b.Rejected(), b.Len())
	}
	// Draining one slot re-opens the queue.
	if m, ok := b.TryReceive(); !ok || m.(int) != 1 {
		t.Fatalf("TryReceive = %v,%v", m, ok)
	}
	if !b.Send(3) {
		t.Fatal("send after drain rejected")
	}
	_ = e
}

// A blocked receiver consumes a send immediately, so the capacity bound
// only applies to the queue: with a waiter parked on the port, Send
// succeeds even when Len had been at capacity moments before.
func TestBoundedPortWaiterBypassesQueueBound(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	b := k.NewBoundedPort("bounded", 1)
	var got []int
	k.NewThread("rx", PrioTS, 0, func(th *Thread) {
		for i := 0; i < 2; i++ {
			m, ok := b.Receive(th)
			if !ok {
				return
			}
			got = append(got, m.(int))
		}
	})
	e.At(ms(5), func() {
		if !b.Send(1) { // direct handoff to the blocked receiver
			t.Error("send to blocked receiver rejected")
		}
		if !b.Send(2) { // queued: capacity 1, queue empty
			t.Error("send into empty queue rejected")
		}
	})
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestBoundedPortCallFullAndDead(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	b := k.NewBoundedPort("svc", 1)
	b.Send("occupant") // fill the queue; no server is receiving
	var errFull, errDead error
	k.NewThread("client", PrioTS, 0, func(th *Thread) {
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
	if b.Rejected() != 2 { // the plain Send that filled it was accepted
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
// signal — and a Receive on an already-destroyed plain port returns a
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
