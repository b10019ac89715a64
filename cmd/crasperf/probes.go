package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// probeCost is one measured probe: wall ns, heap allocations and bytes per
// operation.
type probeCost struct{ ns, allocs, bytes float64 }

// measure times ops operations done by f, after a collection so garbage
// from earlier work is not charged to it. Set-up belongs outside f.
func measure(ops int, f func()) probeCost {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	w := time.Now()
	f()
	el := time.Since(w)
	runtime.ReadMemStats(&b)
	n := float64(ops)
	return probeCost{float64(el.Nanoseconds()) / n, float64(b.Mallocs-a.Mallocs) / n, float64(b.TotalAlloc-a.TotalAlloc) / n}
}

// median3 runs a probe three times and keeps the run with the median time.
func median3(p func() probeCost) probeCost {
	cs := []probeCost{p(), p(), p()}
	slices.SortFunc(cs, func(a, b probeCost) int { return cmp.Compare(a.ns, b.ns) })
	return cs[1]
}

// runProbes measures each layer alone. It returns the per-layer metrics the
// probes own and any probe check that failed.
func runProbes(seed int64) (map[string]float64, []string) {
	m := map[string]float64{}
	var bad []string

	ev := median3(probeEvent)
	m["sim.event_ns"], m["sim.event_allocs"] = ev.ns, ev.allocs
	ho := median3(probeHandoff)
	m["sim.handoff_ns"], m["sim.handoff_allocs"] = ho.ns, ho.allocs
	call := median3(probeCall)
	m["rtm.call_ns"], m["rtm.call_allocs"] = call.ns, call.allocs

	qd1 := median3(func() probeCost { return probeDisk(seed, 1, false) })
	qd64 := median3(func() probeCost { return probeDisk(seed, 64, false) })
	wr := median3(func() probeCost { return probeDisk(seed, 1, true) })
	m["disk.op_ns.qd1"], m["disk.op_ns.qd64"], m["disk.write_ns"] = qd1.ns, qd64.ns, wr.ns
	m["disk.op_allocs"], m["disk.op_bytes"] = qd1.allocs, qd1.bytes

	warm, cold, err := probeUFS(seed)
	if err != nil {
		bad = append(bad, err.Error())
	}
	m["ufs.read_ns.warm"], m["ufs.read_ns.cold"], m["ufs.read_allocs"] = warm.ns, cold.ns, cold.allocs

	for _, n := range []int{10, 100, 1000, 10000} {
		c, err := probeCycle(seed, n)
		if err != nil {
			bad = append(bad, err.Error())
		}
		m[fmt.Sprintf("core.cycle_ns_per_stream.n%d", n)] = c.ns
		m[fmt.Sprintf("core.cycle_allocs.n%d", n)] = c.allocs
	}
	return m, bad
}

// probeEvent: schedule and fire one no-op event.
func probeEvent() probeCost {
	const n = 200000
	e := sim.NewEngine(1)
	noop := func() {}
	return measure(n, func() {
		for i := 0; i < n; i++ {
			e.After(1, noop)
			e.Step()
		}
	})
}

// probeHandoff: one Proc.Sleep round trip, engine -> process goroutine and
// back.
func probeHandoff() probeCost {
	const n = 50000
	e := sim.NewEngine(1)
	e.Spawn("probe", func(p *sim.Proc) {
		for i := 0; i <= n; i++ {
			p.Sleep(1)
		}
	})
	e.Step() // start the process; it parks in its first Sleep
	return measure(n, e.Run)
}

// probeCall: one BoundedPort.Call between a client and a server thread.
func probeCall() probeCost {
	const n = 20000
	e := sim.NewEngine(1)
	k := rtm.NewKernel(e)
	port := k.NewBoundedPort("probe", 64)
	k.NewThread("server", rtm.PrioRT, 0, func(th *rtm.Thread) {
		for {
			req, reply, ok := port.ReceiveCall(th)
			if !ok {
				return
			}
			reply(req)
		}
	})
	var pc probeCost
	k.NewThread("client", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
		// Timed from the client thread: between its calls the engine and
		// the server run, and the wall clock covers all of it.
		pc = measure(n, func() {
			for i := 0; i < n; i++ {
				if _, err := port.Call(th, struct{}{}); err != nil {
					panic(err) // the port is never destroyed or full here
				}
			}
		})
	})
	e.Run()
	return pc
}

// probeDisk: 64 KB real-time operations at queue depth qd over seeded
// random positions. Writes carry a payload and cycle over 64 slots so the
// sector store stays bounded.
func probeDisk(seed int64, qd int, write bool) probeCost {
	n := 10000
	if write {
		n = 3000
	}
	const sectors = 128
	e := sim.NewEngine(seed)
	g, p := disk.ST32550N()
	d := disk.New(e, "probe", g, p)
	rng := e.RNG("crasperf.probe.disk")
	span := g.TotalSectors() - sectors
	var payload []byte
	if write {
		payload = make([]byte, sectors*g.SectorSize)
		for i := range payload {
			payload[i] = byte(i%251 + 1)
		}
	}
	issued := 0
	var submit func()
	done := func(*disk.Request, []byte) { submit() }
	submit = func() {
		if issued == n {
			return
		}
		lba := rng.Int63n(span)
		if write {
			lba = int64(issued%64) * (span / 64)
		}
		issued++
		d.Submit(&disk.Request{LBA: lba, Count: sectors, Write: write, Data: payload, RealTime: true, Done: done})
	}
	return measure(n, func() {
		for i := 0; i < qd; i++ {
			submit()
		}
		e.Run()
	})
}

// probeUFS: Client.Read of 256 KB through the Unix server, warm (the same
// 256 KB, cached) and cold (sequential through a file 32x the cache).
func probeUFS(seed int64) (warm, cold probeCost, err error) {
	const req, coldReads, warmReads = 256 << 10, 256, 2000
	big := media.CBRProfile{FrameRate: 1, Rate: 1 << 20}.Generate("/big", 64*time.Second)
	m := lab.Build(lab.Setup{Seed: seed, NoCRAS: true, Movies: []lab.Movie{{Path: "/big", Info: big}}}, func(*lab.Machine) {})
	m.Eng.Run()
	if err := m.Err(); err != nil {
		return warm, cold, fmt.Errorf("ufs probe: %w", err)
	}
	read := func(n int, off func(i int) int64) probeCost {
		var pc probeCost
		var perr error
		m.App("probe", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			c := ufs.NewClient(m.Unix, th)
			fd, err := c.Open("/big")
			if err != nil {
				perr = err
				return
			}
			pc = measure(n, func() {
				for i := 0; i < n && perr == nil; i++ {
					_, perr = c.Read(fd, off(i), req)
				}
			})
		})
		m.Eng.Run()
		if perr != nil {
			err = fmt.Errorf("ufs probe: %w", perr)
		}
		return pc
	}
	cold = read(coldReads, func(i int) int64 { return int64(i) * req })
	warm = read(warmReads, func(int) int64 { return 0 })
	return warm, cold, err
}

// probeCycle: the CRAS scheduler over n streams with no viewers — one
// disk-fed feed and n-1 multicast members of a 2 chunks/s title — for 60
// simulated seconds after warm-up. Leases and the shed gate are off and the
// budgets unbounded, so the probe measures the cycle, not admission. It
// reports wall ns per stream per cycle and allocations per cycle, and fails
// if any member falls back or any cycle overruns its I/O deadline.
func probeCycle(seed int64, n int) (probeCost, error) {
	const window = 60 * time.Second
	info := media.CBRProfile{FrameRate: 2, Rate: 16 << 10}.Generate("/p", 5*time.Minute)
	var srv *core.Server
	var k *rtm.Kernel
	m := lab.Build(lab.Setup{
		Seed: seed,
		CRAS: core.Config{
			InitialDelay: 10 * time.Second, // covers the spread of n Starts, so no member's buffer overflows
			BufferBudget: 1 << 40, PrefixBudget: 1 << 40, BatchWindow: time.Hour,
			LeaseTTL: -1, MaxRequestsPerCycle: -1,
		},
		Movies: []lab.Movie{{Path: "/p", Info: info}},
	}, func(m *lab.Machine) { srv, k = m.CRAS, m.Kernel })
	m.Eng.RunUntil(time.Minute)
	if err := m.Err(); err != nil || srv == nil {
		return probeCost{}, fmt.Errorf("cycle probe n=%d: boot: %v", n, err)
	}
	var perr error
	opened := false
	k.NewThread("probe", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
		hs := make([]*core.Handle, 0, n)
		for i := 0; i < n; i++ {
			// Force skips the admission test, whose per-open rebuild of the
			// whole admission set makes opening 10k streams quadratic. The
			// streams and their charges are the same either way.
			h, err := srv.Open(th, info, "/p", core.OpenOptions{Force: true})
			if err != nil {
				perr = err
				return
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if err := h.Start(th); err != nil {
				perr = err
				return
			}
		}
		opened = true
	})
	for !opened && perr == nil && m.Eng.Now() < 10*time.Minute {
		m.Eng.RunFor(interval)
	}
	if perr != nil || !opened {
		return probeCost{}, fmt.Errorf("cycle probe n=%d: open: %v", n, perr)
	}
	m.Eng.RunFor(30 * time.Second) // every clock running, buffers at steady state
	s0 := srv.Stats()
	c := measure(1, func() { m.Eng.RunFor(window) })
	s1 := srv.Stats()
	cycles := float64(s1.Cycles - s0.Cycles)
	c.ns /= cycles * float64(n)
	c.allocs /= cycles
	if s1.MulticastAttached != n-1 || s1.MulticastFallbacks != 0 || s1.IODeadlineMiss != 0 {
		return c, fmt.Errorf("cycle probe n=%d: %d members attached, %d fell back, %d I/O overruns",
			n, s1.MulticastAttached, s1.MulticastFallbacks, s1.IODeadlineMiss)
	}
	return c, nil
}
