package analysis

import (
	"go/types"
)

// PortBound flags call sites that discard a bounded port's rejection result.
// rtm.BoundedPort.Send reports refusal through its bool and Call through its
// error; code that drops either treats a turned-away message as delivered,
// which is exactly the silent-loss failure the bounded request queue exists
// to prevent — overload must surface to the caller, not vanish.
var PortBound = NewPortBound("internal/rtm")

// NewPortBound builds a portbound analyzer guarding methods of a type named
// BoundedPort declared in a package whose import path equals or ends with
// one of the given suffixes. The default instance guards internal/rtm; tests
// build instances pointed at fixture packages.
func NewPortBound(pkgSuffixes ...string) *Analyzer {
	match := suffixScope(pkgSuffixes...)
	a := &Analyzer{
		Name: "portbound",
		Doc: "forbid discarding a bounded port's rejection result (Send's bool, Call's error); " +
			"a dropped rejection turns overload into silent message loss",
		Scope: nil, // callers live in many packages; the callee check scopes it
	}
	a.Run = func(pass *Pass) error {
		return runDiscardCheck(pass, match, boundedPortResult,
			"rejection", "a bounded port's refusal must be handled, not dropped")
	}
	return a
}

// boundedPortResult is the index of the rejection result of a method of a
// type named BoundedPort, or -1 for any other function.
func boundedPortResult(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return -1
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "BoundedPort" {
		return -1
	}
	return rejectionResultIndex(sig)
}

// rejectionResultIndex is the error result if the method has one, otherwise
// its last bool result (Send's accepted flag), otherwise -1.
func rejectionResultIndex(sig *types.Signature) int {
	res := sig.Results()
	idx := -1
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return i
		}
		if b, ok := res.At(i).Type().(*types.Basic); ok && b.Kind() == types.Bool {
			idx = i
		}
	}
	return idx
}
