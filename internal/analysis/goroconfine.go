package analysis

import (
	"go/ast"
	"go/types"
)

// GoroConfine enforces goroutine confinement of scheduler state. A struct
// field annotated //crasvet:confined (on its declaration line or doc
// comment) belongs to the server's event-loop threads: it may only be read
// or written from a function reachable from a thread entry point (a body
// handed to rtm.Kernel.NewThread / NewPeriodicThread, a callback handed to
// rtm.Kernel.NewHandler, or a function annotated //crasvet:thread /
// //crasvet:hotpath), from a documented snapshot
// accessor (//crasvet:snapshot), or from pre-concurrency construction
// (//crasvet:init). Any other access is the race `go test -race` only
// catches when a test happens to interleave the two sides — here it is
// caught on every build.
//
// The ConfinedFact is exported in the Gather phase by the field's defining
// package and consumed module-wide, so an escape in any package that can
// see the field is caught even though the checker there type-checked the
// owner from export data.
var GoroConfine = &Analyzer{
	Name: "goroconfine",
	Doc: "restrict //crasvet:confined struct fields to event-loop-reachable " +
		"functions, //crasvet:snapshot accessors, and //crasvet:init construction",
	FactTypes: []Fact{(*ConfinedFact)(nil)},
	Gather:    gatherConfined,
	Run:       runGoroConfine,
}

// ConfinedFact marks a struct field as confined to the event-loop threads.
type ConfinedFact struct{}

func (*ConfinedFact) AFact() {}

// gatherConfined exports a ConfinedFact for every //crasvet:confined field
// declared in the package.
func gatherConfined(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !commentHasDirective(field.Doc, dirConfined) && !commentHasDirective(field.Comment, dirConfined) {
					continue
				}
				for _, name := range field.Names {
					if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						pass.ExportObjectFact(obj, &ConfinedFact{})
					}
				}
			}
			return true
		})
	}
	return nil
}

func runGoroConfine(pass *Pass) error {
	g := pass.Graph()
	for _, f := range pass.Files {
		walkWithFunc(g, pass.TypesInfo, f, func(encl string, n ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok {
				return
			}
			obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok || !obj.IsField() {
				return
			}
			var fact ConfinedFact
			if !pass.ImportObjectFact(obj, &fact) {
				return
			}
			if encl != "" && (g.ThreadReachable(encl) ||
				g.Annotated(dirSnapshot, encl) || g.Annotated(dirInit, encl)) {
				return
			}
			pass.Reportf(id.Pos(),
				"confined field %s accessed outside the event loop: only thread-entry-reachable "+
					"functions, //crasvet:snapshot accessors, or //crasvet:init construction may touch it",
				obj.Name())
		})
	}
	return nil
}

// walkWithFunc walks a file calling fn with each node and the call-graph
// key of its innermost enclosing function body ("" at file scope, e.g.
// package-level variable initializers).
func walkWithFunc(g *CallGraph, info *types.Info, f *ast.File, fn func(encl string, n ast.Node)) {
	var walk func(n ast.Node, encl string)
	walk = func(n ast.Node, encl string) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return
			}
			key := g.DeclKey(info, n)
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if inner == nil || inner == n.Body {
					return true
				}
				walk(inner, key)
				return false
			})
			return
		case *ast.FuncLit:
			// The literal itself is a value created in the enclosing body;
			// its body's contents run under the literal's own node.
			key := g.LitKey(n)
			fn(encl, n)
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if inner == nil || inner == n.Body {
					return true
				}
				walk(inner, key)
				return false
			})
			return
		}
		fn(encl, n)
		ast.Inspect(n, func(inner ast.Node) bool {
			if inner == nil || inner == n {
				return true
			}
			walk(inner, encl)
			return false
		})
	}
	for _, decl := range f.Decls {
		walk(decl, "")
	}
}
