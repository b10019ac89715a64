package analysis

import (
	"go/types"
)

// IOErrCheck flags discarded error returns from the internal/disk and
// internal/ufs read/write paths. A swallowed I/O error leaves the
// cylinder-sorted batch accounting out of sync with what the disk actually
// did, which quietly skews the very measurements (Figures 8–9) the admission
// formulas are validated against.
var IOErrCheck = NewIOErrCheck("internal/disk", "internal/ufs")

// NewIOErrCheck builds an ioerrcheck analyzer that guards calls into
// packages whose import path equals or ends with one of the given suffixes.
// The default instance guards internal/disk and internal/ufs; tests build
// instances pointed at fixture packages.
func NewIOErrCheck(pkgSuffixes ...string) *Analyzer {
	match := suffixScope(pkgSuffixes...)
	a := &Analyzer{
		Name: "ioerrcheck",
		Doc: "forbid discarding error returns from internal/disk and internal/ufs calls; " +
			"a swallowed I/O error corrupts the batch accounting admission control depends on",
		Scope: nil, // callers live in many packages; the callee check scopes it
	}
	a.Run = func(pass *Pass) error {
		return runDiscardCheck(pass, match, errorResultIndex,
			"error", "I/O errors must be handled or the batch accounting drifts")
	}
	return a
}

// errorResultIndex returns the index of the function's error result, or -1.
func errorResultIndex(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
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

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
