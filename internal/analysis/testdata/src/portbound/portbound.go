package portbound

import "portbound/fakertm"

func drops(b *fakertm.RPC[int, string], t *fakertm.Thread) {
	b.Call(t, 1)         // want "rejection result of fakertm.RPC.Call discarded"
	go b.Call(t, 1)      // want "rejection result of fakertm.RPC.Call discarded by go"
	defer b.Call(t, 1)   // want "rejection result of fakertm.RPC.Call discarded by defer"
	r, _ := b.Call(t, 1) // want "rejection result of fakertm.RPC.Call assigned to _"
	_, _ = b.Call(t, 2)  // want "rejection result of fakertm.RPC.Call assigned to _"
	_ = r
}

// The alias names the same generic type, so calls through it are checked
// the same way.
func dropsThroughAlias(b *fakertm.BoundedPort, t *fakertm.Thread) {
	b.Call(t, nil)            // want "rejection result of fakertm.RPC.Call discarded"
	resp, _ := b.Call(t, nil) // want "rejection result of fakertm.RPC.Call assigned to _"
	_ = resp
}

func handled(b *fakertm.RPC[int, string], a *fakertm.BoundedPort, t *fakertm.Thread) error {
	if _, err := b.Call(t, 1); err != nil {
		return err
	}
	if _, err := a.Call(t, nil); err != nil {
		return err
	}
	req, reply, ok := b.ReceiveCall(t)
	_, _, _ = req, reply, ok
	// Result-free reads, a discarded receive and the one-way port are no
	// business of the analyzer's.
	b.Rejected()
	a.ReceiveCall(t)
	var p fakertm.Port
	p.Send(nil)
	return nil
}

func sanctioned(b *fakertm.BoundedPort, t *fakertm.Thread) {
	b.Call(t, nil) //crasvet:allow portbound -- fixture: best-effort notification
}
