package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runDiscardCheck is the walk ioerrcheck and portbound share. It reports
// every call whose guarded result is thrown away: the call used as a bare
// statement, deferred or run by go, or the result assigned to _ — in a
// single assignment, where LHS positions match result positions, or a
// parallel one, where each RHS call's first result lands in its LHS. A
// call is guarded when its callee's package path passes match; result
// gives the guarded result's index, or -1 for none. Findings read
// "<what> result of pkg.Name <how>; <why>".
func runDiscardCheck(pass *Pass, match func(string) bool, result func(*types.Func) int, what, why string) error {
	guard := func(call *ast.CallExpr) (*types.Func, int) {
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || !match(fn.Pkg().Path()) {
			return nil, -1
		}
		return fn, result(fn)
	}
	report := func(pos token.Pos, fn *types.Func, how string) {
		pass.Reportf(pos, "%s result of %s.%s %s; %s", what, fn.Pkg().Name(), qualifiedName(fn), how, why)
	}
	bare := func(e ast.Expr, how string) {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			if fn, idx := guard(call); fn != nil && idx >= 0 {
				report(call.Pos(), fn, how)
			}
		}
	}
	assign := func(as *ast.AssignStmt) {
		if len(as.Rhs) == 1 {
			if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
				if fn, idx := guard(call); fn != nil && idx >= 0 && len(as.Lhs) > idx && isBlank(as.Lhs[idx]) {
					report(as.Lhs[idx].Pos(), fn, "assigned to _")
				}
				return
			}
		}
		if len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBlank(as.Lhs[i]) {
				continue
			}
			if fn, idx := guard(call); fn != nil && idx == 0 {
				report(as.Lhs[i].Pos(), fn, "assigned to _")
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				bare(n.X, "discarded")
			case *ast.DeferStmt:
				bare(n.Call, "discarded by defer")
			case *ast.GoStmt:
				bare(n.Call, "discarded by go")
			case *ast.AssignStmt:
				assign(n)
			}
			return true
		})
	}
	return nil
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
