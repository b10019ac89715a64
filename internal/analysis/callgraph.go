package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CallGraph is a conservative, module-wide static call graph over every
// package of a Suite, built once per suite and shared by the
// interprocedural analyzers. Nodes are function bodies (declared functions,
// methods, and function literals); an edge exists wherever a body could
// invoke another: direct calls, method-value references (eng.After(d,
// k.burstEnd) creates k → burstEnd), and function literals defined inside a
// body (assumed invocable). Interface dispatch is not followed — callers
// needing soundness across an interface boundary annotate the concrete
// entry point instead.
//
// Two root sets drive the analyzers:
//
//   - hot roots: callbacks handed to rtm.Kernel.NewPeriodicThread (the
//     scheduler event loop) plus functions annotated //crasvet:hotpath.
//     Everything reachable from them is the per-cycle path hotalloc guards.
//   - thread roots: the hot roots plus every body handed to
//     rtm.Kernel.NewThread, every callback handed to rtm.Kernel.NewHandler
//     (a handler thread's cost and message functions run as that thread),
//     and functions annotated //crasvet:thread — the
//     server-side execution contexts from which goroconfine permits
//     touching confined state.
type CallGraph struct {
	fset  *token.FileSet
	edges map[string]map[string]bool

	annotated map[string]map[string]bool // directive name → node keys

	hotRoots    map[string]bool
	threadRoots map[string]bool

	hotReach    map[string]bool
	threadReach map[string]bool
}

// Directive names the call graph and analyzers recognize (beyond
// crasvet:allow, which analysis.go handles):
//
//	//crasvet:hotpath  — function is on the per-cycle path (hotalloc root)
//	//crasvet:thread   — function is a server thread entry (goroconfine root)
//	//crasvet:snapshot — documented cross-thread read path (goroconfine)
//	//crasvet:init     — pre-concurrency construction path (goroconfine)
const (
	dirHotpath  = "hotpath"
	dirThread   = "thread"
	dirSnapshot = "snapshot"
	dirInit     = "init"
	dirConfined = "confined"
)

// commentHasDirective reports whether the comment group carries
// //crasvet:<name>, optionally followed by free text.
func commentHasDirective(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	want := "//crasvet:" + name
	for _, c := range cg.List {
		if c.Text == want || strings.HasPrefix(c.Text, want+" ") || strings.HasPrefix(c.Text, want+"\t") {
			return true
		}
	}
	return false
}

// isRTMPkg reports whether the import path is the RT-Mach kernel layer (or
// a fixture standing in for it): "rtm" or any path ending in "/rtm".
func isRTMPkg(path string) bool {
	return path == "rtm" || strings.HasSuffix(path, "/rtm")
}

// funcKey returns the graph node key for a resolved function or method.
func (g *CallGraph) funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if key, ok := objectKey(fn); ok {
		return key
	}
	return "func@" + g.fset.Position(fn.Pos()).String()
}

// litKey returns the graph node key for a function literal.
func (g *CallGraph) litKey(lit *ast.FuncLit) string {
	return "lit@" + g.fset.Position(lit.Pos()).String()
}

// DeclKey returns the node key for a declared function, resolving through
// the package's type information.
func (g *CallGraph) DeclKey(info *types.Info, fd *ast.FuncDecl) string {
	if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
		return g.funcKey(fn)
	}
	return "decl@" + g.fset.Position(fd.Pos()).String()
}

// LitKey is litKey, exported for analyzers tracking enclosing literals.
func (g *CallGraph) LitKey(lit *ast.FuncLit) string { return g.litKey(lit) }

// HotPath reports whether the function node is on the per-cycle path:
// reachable from the scheduler event loop or a //crasvet:hotpath root.
func (g *CallGraph) HotPath(key string) bool { return g.hotReach[key] }

// ThreadReachable reports whether the function node is reachable from any
// server thread entry point.
func (g *CallGraph) ThreadReachable(key string) bool { return g.threadReach[key] }

// Annotated reports whether the node carries the named //crasvet: directive.
func (g *CallGraph) Annotated(dir, key string) bool { return g.annotated[dir][key] }

func buildCallGraph(fset *token.FileSet, pkgs []*Package) *CallGraph {
	g := &CallGraph{
		fset:        fset,
		edges:       map[string]map[string]bool{},
		annotated:   map[string]map[string]bool{},
		hotRoots:    map[string]bool{},
		threadRoots: map[string]bool{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := g.DeclKey(pkg.Info, fd)
				for _, dir := range []string{dirHotpath, dirThread, dirSnapshot, dirInit} {
					if commentHasDirective(fd.Doc, dir) {
						g.annotate(dir, key)
					}
				}
				g.walkBody(pkg.Info, key, fd.Body)
			}
		}
	}
	for dir, roots := range map[string]map[string]bool{dirHotpath: g.hotRoots, dirThread: g.threadRoots} {
		for key := range g.annotated[dir] {
			roots[key] = true
		}
	}
	// Hot roots are thread roots too: the periodic loop is a thread.
	for key := range g.hotRoots {
		g.threadRoots[key] = true
	}
	g.hotReach = g.reach(g.hotRoots)
	g.threadReach = g.reach(g.threadRoots)
	return g
}

func (g *CallGraph) annotate(dir, key string) {
	set := g.annotated[dir]
	if set == nil {
		set = map[string]bool{}
		g.annotated[dir] = set
	}
	set[key] = true
}

func (g *CallGraph) addEdge(from, to string) {
	set := g.edges[from]
	if set == nil {
		set = map[string]bool{}
		g.edges[from] = set
	}
	set[to] = true
}

// walkBody records edges and roots for one function body, recursing into
// literals under their own node keys.
func (g *CallGraph) walkBody(info *types.Info, cur string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lk := g.litKey(n)
			g.addEdge(cur, lk) // defined here ⇒ may be invoked from here
			g.walkBody(info, lk, n.Body)
			return false
		case *ast.CallExpr:
			g.noteThreadSpawn(info, n)
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok {
				g.addEdge(cur, g.funcKey(fn))
			}
		}
		return true
	})
}

// noteThreadSpawn registers the callback arguments of
// rtm.Kernel.NewThread / NewHandler / NewPeriodicThread as graph roots.
func (g *CallGraph) noteThreadSpawn(info *types.Info, call *ast.CallExpr) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !isRTMPkg(fn.Pkg().Path()) {
		return
	}
	var roots map[string]bool
	switch fn.Name() {
	case "NewPeriodicThread":
		roots = g.hotRoots
	case "NewThread", "NewHandler":
		roots = g.threadRoots
	default:
		return
	}
	for _, arg := range call.Args {
		switch arg := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			roots[g.litKey(arg)] = true
		case *ast.Ident, *ast.SelectorExpr:
			if cb := usedFunc(info, arg); cb != nil {
				roots[g.funcKey(cb)] = true
			}
		}
	}
}

// reach computes the transitive closure of the edge relation from roots.
func (g *CallGraph) reach(roots map[string]bool) map[string]bool {
	seen := map[string]bool{}
	var frontier []string
	for key := range roots {
		seen[key] = true
		frontier = append(frontier, key)
	}
	sort.Strings(frontier) // determinism of any future iteration order
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for next := range g.edges[cur] {
			if !seen[next] {
				seen[next] = true
				frontier = append(frontier, next)
			}
		}
	}
	return seen
}
