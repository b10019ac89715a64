// Package rtm is a minimal stand-in for repro/internal/rtm: the call-graph
// root detection matches callbacks handed to NewHandler on any package
// whose import path ends in "/rtm".
package rtm

// Thread is a fake scheduler handle.
type Thread struct{}

// Kernel is a fake cooperative kernel.
type Kernel struct{}

// Port is a fake message port.
type Port struct{}

// NewHandler registers a handler thread's per-message cost and callback.
func (k *Kernel) NewHandler(name string, prio int, port *Port,
	cost func(msg any) int, fn func(msg any) bool) *Thread {
	return &Thread{}
}
