package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags heap allocations on the per-cycle path: functions
// annotated //crasvet:hotpath plus everything the call graph reaches from
// the scheduler event loop (the callback handed to
// rtm.Kernel.NewPeriodicThread). Every interval the scheduler stamps,
// discards and issues for every admitted stream; an allocation there is
// multiplied by stream count × cycle rate, and scaling the engine to
// 10k+ streams requires this path to be allocation-free. Flagged forms:
//
//   - escaping composite literals (&T{...}) and new(T)
//   - make of slices, maps and channels
//   - fmt.* calls (Sprintf and friends format into fresh strings)
//   - arguments boxed into a variadic ...any parameter
//   - function literals that capture enclosing variables (closure headers)
//   - append (may grow the backing array mid-cycle)
//
// Every finding fails; //crasvet:allow hotalloc, with its reason, is for
// sites that are allocation-free by construction (e.g. an append into a
// slice reset under the same cycle with capacity retained) or that only
// run off the steady cycle (a pool miss, a panic's formatting).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "forbid heap allocations (escaping composites, make, fmt, variadic " +
		"boxing, capturing closures, append) in //crasvet:hotpath functions and " +
		"code reachable from the scheduler's per-cycle loop",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	g := pass.Graph()
	info := pass.TypesInfo
	for _, f := range pass.Files {
		walkWithFunc(g, info, f, func(encl string, n ast.Node) {
			if encl == "" || !g.HotPath(encl) {
				return
			}
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
						pass.Reportf(n.Pos(), "composite literal escapes to the heap on the hot path; reuse a pooled or preallocated value")
					}
				}
			case *ast.FuncLit:
				if capt := captured(info, n); capt != "" {
					pass.Reportf(n.Pos(), "closure captures %s on the hot path; each capture allocates — hoist the closure or pass state explicitly", capt)
				}
			case *ast.CallExpr:
				checkHotCall(pass, n)
			}
		})
	}
	return nil
}

func checkHotCall(pass *Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "new":
				pass.Reportf(call.Pos(), "new allocates on the hot path; reuse a preallocated value")
			case "make":
				pass.Reportf(call.Pos(), "make allocates on the hot path; preallocate outside the loop and reuse")
			case "append":
				pass.Reportf(call.Pos(), "append may grow its backing array on the hot path; preallocate to the admitted bound")
			}
			return
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates on the hot path; format off-cycle or use a preallocated buffer", fn.Name())
		return
	}
	// Passing arguments through a variadic ...any parameter boxes each one.
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !sig.Variadic() || call.Ellipsis != token.NoPos {
		return
	}
	last := sig.Params().At(sig.Params().Len() - 1)
	slice, ok := last.Type().(*types.Slice)
	if !ok {
		return
	}
	iface, ok := slice.Elem().Underlying().(*types.Interface)
	if !ok || !iface.Empty() {
		return
	}
	if len(call.Args) >= sig.Params().Len() { // at least one boxed argument
		pass.Reportf(call.Pos(), "arguments to %s box into a variadic ...any slice on the hot path", qualifiedName(fn))
	}
}

// captured returns the name of a variable the literal captures from an
// enclosing function, or "".
func captured(info *types.Info, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Parent() == nil || obj.Pkg() == nil {
			return true
		}
		// A local whose declaration lies outside the literal is a capture.
		if obj.Parent() != obj.Pkg().Scope() && !withinNode(lit, obj.Pos()) {
			name = obj.Name()
		}
		return true
	})
	return name
}

func withinNode(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}
