package analysis

import (
	"go/types"
)

// PortBound flags call sites that discard a call port's rejection result.
// rtm.RPC.Call reports a call turned away by a full queue or a destroyed
// port through its error; code that drops it treats a refused request as
// served, which is exactly the silent-loss failure the bounded request
// queue exists to prevent — overload must surface to the caller, not
// vanish.
var PortBound = NewPortBound("internal/rtm")

// NewPortBound builds a portbound analyzer guarding methods of the generic
// type named RPC — every instantiation, aliases such as rtm.BoundedPort
// included — declared in a package whose import path equals or ends with
// one of the given suffixes. The default instance guards internal/rtm;
// tests build instances pointed at fixture packages.
func NewPortBound(pkgSuffixes ...string) *Analyzer {
	match := suffixScope(pkgSuffixes...)
	a := &Analyzer{
		Name: "portbound",
		Doc: "forbid discarding a call port's rejection result (Call's error); " +
			"a dropped rejection turns overload into silent request loss",
		Scope: nil, // callers live in many packages; the callee check scopes it
	}
	a.Run = func(pass *Pass) error {
		return runDiscardCheck(pass, match, callPortResult,
			"rejection", "a call port's refusal must be handled, not dropped")
	}
	return a
}

// callPortResult is the index of the error result of a method of the
// generic type RPC (matched by its origin, whatever the instantiation or
// alias), or -1 for any other function.
func callPortResult(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return -1
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Origin().Obj().Name() != "RPC" {
		return -1
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return i
		}
	}
	return -1
}
