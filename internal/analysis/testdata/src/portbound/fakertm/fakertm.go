// Package fakertm stands in for internal/rtm in the portbound fixtures.
package fakertm

type Thread struct{}

// RPC mirrors the real call port: Call reports refusal with an error,
// ReceiveCall destruction with an ok flag.
type RPC[Req, Resp any] struct{}

func (p *RPC[Req, Resp]) Call(t *Thread, req Req) (Resp, error) {
	var r Resp
	return r, nil
}

func (p *RPC[Req, Resp]) ReceiveCall(t *Thread) (Req, func(Resp), bool) {
	var r Req
	return r, nil, false
}

func (p *RPC[Req, Resp]) Rejected() int64 { return 0 }

// BoundedPort is the untyped call port, an alias whose type name is RPC.
type BoundedPort = RPC[any, any]

// Port is the one-way kind: its sends cannot be refused, so nothing is at
// stake and the analyzer must leave it alone.
type Port struct{}

func (p *Port) Send(msg any) {}
