package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// DetShared guards the determinism contract of the parallel runner:
// a runner.Map worker must communicate only through its return value
// (runner.Map merges results in canonical index order), never by
// mutating state shared across workers — shared writes make the merged
// output depend on goroutine scheduling, which is exactly the
// divergence the m-router's bit-identical tree computation cannot
// absorb. Mutexes do not excuse a write: serialised-but-reordered
// updates are still nondeterministic.
//
// Within each worker function literal passed to runner.Map, the
// analyzer reports writes to package-level variables and to variables
// captured from the enclosing scope. Two reviewed idioms stay legal:
// writes into disjoint elements of a captured slice when the index
// derives from the worker's job number (the chunk pattern — each job
// owns rows [lo, hi)), and method calls on captured state (atomics,
// runner.Cache) — calls are outside this analyzer's write model and
// are vetted by review.
//
// Package-level writes are also tracked transitively: the Facts phase
// summarises which functions (directly or through static callees)
// assign package-level variables, and a worker calling such a function
// is reported at the call site. Dynamic dispatch and std-lib internals
// are documented false negatives (DESIGN.md §11).
//
// Workers are also found through helpers that wrap runner.Map: the
// Facts phase records which function parameters a function hands to a
// worker (mentions inside a worker literal, or passes on to another
// such position), and a function literal passed at one of those
// positions is checked as a worker.
var DetShared = &Analyzer{
	Name:  "detshared",
	Doc:   "flags runner.Map worker closures that write shared or captured state instead of returning values",
	Facts: runDetSharedFacts,
	Run:   runDetShared,
}

// detsharedFact summarises a function for its callers.
type detsharedFact struct {
	writesGlobal bool  // writes package-level state, directly or transitively
	workerParams []int // parameter positions that run as runner.Map workers
}

func runDetSharedFacts(p *Pass) {
	funcs := packageFuncs(p)
	writes := make(map[*types.Func]bool, len(funcs))
	callees := make(map[*types.Func][]*types.Func, len(funcs))
	for _, fi := range funcs {
		if fi.obj == nil {
			continue
		}
		found := false
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			if v := writtenVar(p.Info, n); v != nil && isPackageLevel(v) {
				if !p.ignoredAt(n.Pos(), p.Fset.Position(n.Pos()).Line) {
					found = true
				}
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := staticCallee(p.Info, call); callee != nil {
					callees[fi.obj] = append(callees[fi.obj], callee)
				}
			}
			return true
		})
		writes[fi.obj] = found
	}
	for changed := true; changed; {
		changed = false
		for obj, w := range writes {
			if w {
				continue
			}
			for _, callee := range callees[obj] {
				if callee.Pkg() == p.Pkg {
					if writes[callee] {
						writes[obj] = true
						changed = true
						break
					}
					continue
				}
				if f, ok := p.FactOf(callee).(detsharedFact); ok && f.writesGlobal {
					writes[obj] = true
					changed = true
					break
				}
			}
		}
	}
	forwards := make(map[*types.Func][]int)
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			if fi.obj == nil {
				continue
			}
			if idx := forwardedParams(p, fi, forwards); len(idx) != len(forwards[fi.obj]) {
				forwards[fi.obj] = idx
				changed = true
			}
		}
	}
	for _, fi := range funcs {
		if f := (detsharedFact{writes[fi.obj], forwards[fi.obj]}); f.writesGlobal || len(f.workerParams) > 0 {
			p.ExportFact(fi.obj, f)
		}
	}
}

// forwardedParams returns the positions of fi's function-typed
// parameters that reach a worker position of a call in its body. local
// holds the same package's results so far.
func forwardedParams(p *Pass, fi funcInfo, local map[*types.Func][]int) []int {
	params := fi.obj.Type().(*types.Signature).Params()
	pos := make(map[types.Object]int, params.Len())
	for i := 0; i < params.Len(); i++ {
		if _, isFunc := params.At(i).Type().Underlying().(*types.Signature); isFunc {
			pos[params.At(i)] = i
		}
	}
	var out []int
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, a := range workerArgs(p, call, local) {
			ast.Inspect(call.Args[a], func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if i, ok := pos[p.Info.Uses[id]]; ok && !slices.Contains(out, i) {
						out = append(out, i)
					}
				}
				return true
			})
		}
		return true
	})
	slices.Sort(out)
	return out
}

// workerArgs returns the argument positions of call that run as
// runner.Map workers: Map's job function, or a forwarding helper's
// worker parameters (from local, else from the callee's fact).
func workerArgs(p *Pass, call *ast.CallExpr, local map[*types.Func][]int) []int {
	if isRunnerMapCall(p, call) {
		if len(call.Args) == 0 {
			return nil
		}
		return []int{len(call.Args) - 1}
	}
	callee := staticCallee(p.Info, call)
	if callee == nil {
		return nil
	}
	callee = callee.Origin()
	idx, ok := local[callee]
	if !ok {
		f, _ := p.FactOf(callee).(detsharedFact)
		idx = f.workerParams
	}
	var out []int
	for _, i := range idx {
		if i < len(call.Args) {
			out = append(out, i)
		}
	}
	return out
}

func runDetShared(p *Pass) {
	for _, fi := range packageFuncs(p) {
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, a := range workerArgs(p, call, nil) {
				if job, ok := call.Args[a].(*ast.FuncLit); ok {
					checkWorker(p, job)
				}
			}
			return true
		})
	}
}

// isRunnerMapCall matches runner.Map(...) (by package path suffix, so
// analyzer tests can declare their own runner-shaped package).
func isRunnerMapCall(p *Pass, call *ast.CallExpr) bool {
	path, name, _, ok := selectorPkg(p.Info, call.Fun)
	return ok && name == "Map" && strings.HasSuffix(path, "runner")
}

// checkWorker analyzes one worker function literal.
func checkWorker(p *Pass, job *ast.FuncLit) {
	derived := jobDerivedVars(p, job)
	ast.Inspect(job.Body, func(n ast.Node) bool {
		if v := writtenVar(p.Info, n); v != nil {
			checkWorkerWrite(p, job, n, v, derived)
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := staticCallee(p.Info, call); callee != nil {
				if f, ok := p.FactOf(callee).(detsharedFact); ok && f.writesGlobal {
					p.Reportf(call.Pos(), "worker calls %s, which writes package-level state; workers must communicate through their return value", callee.FullName())
				}
			}
		}
		return true
	})
}

// checkWorkerWrite classifies one write statement inside a worker.
func checkWorkerWrite(p *Pass, job *ast.FuncLit, n ast.Node, v *types.Var, derived map[*types.Var]bool) {
	if isPackageLevel(v) {
		p.Reportf(n.Pos(), "worker writes package-level %s; workers must communicate through their return value", v.Name())
		return
	}
	if declaredWithin(v, job) {
		return // worker-local state is private to the job
	}
	// Write through captured state. The one legal shape is a slice
	// element (or element field) whose index is derived from the job
	// number — each job owning a disjoint chunk.
	lhs := writeTarget(n)
	if idx := sliceIndexOf(p, lhs); idx != nil && !isMapIndex(p, lhs) && indexIsJobDerived(p, idx, derived) {
		return
	}
	p.Reportf(n.Pos(), "worker writes captured %s; workers must communicate through their return value (or index a disjoint chunk by job number)", v.Name())
}

// writtenVar returns the root variable a statement writes, nil when n
// is not a write. Covered: assignments (including op-assign and
// multi-assign roots) and ++/--.
func writtenVar(info *types.Info, n ast.Node) *types.Var {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			if v := rootObj(info, lhs); v != nil {
				return v
			}
		}
	case *ast.IncDecStmt:
		return rootObj(info, n.X)
	}
	return nil
}

// writeTarget returns the first meaningful LHS expression of a write.
func writeTarget(n ast.Node) ast.Expr {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			return lhs
		}
	case *ast.IncDecStmt:
		return n.X
	}
	return nil
}

// sliceIndexOf returns the index expression when e (possibly wrapped in
// selectors) bottoms out in an index expression, nil otherwise.
func sliceIndexOf(p *Pass, e ast.Expr) ast.Expr {
	for e != nil {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			return x.Index
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
	return nil
}

// isMapIndex reports whether the innermost index expression of e
// indexes a map — map writes are racy regardless of key derivation.
func isMapIndex(p *Pass, e ast.Expr) bool {
	for e != nil {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			if t := p.TypeOf(x.X); t != nil {
				_, isMap := t.Underlying().(*types.Map)
				return isMap
			}
			return false
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
	return false
}

// jobDerivedVars computes the worker locals whose values derive from
// the job-number parameter: the parameter itself, then a fixpoint over
// assignments whose right-hand side mentions a derived variable (the
// lo/hi chunk-bound pattern).
func jobDerivedVars(p *Pass, job *ast.FuncLit) map[*types.Var]bool {
	derived := make(map[*types.Var]bool)
	if job.Type.Params != nil {
		for _, f := range job.Type.Params.List {
			for _, name := range f.Names {
				if v, ok := p.Info.Defs[name].(*types.Var); ok {
					derived[v] = true
				}
			}
		}
	}
	mentionsDerived := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := p.Info.Uses[id].(*types.Var); ok && derived[v] {
					found = true
				}
			}
			return !found
		})
		return found
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(job.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				v := objOf(p.Info, as.Lhs[i])
				if v == nil || derived[v] || !declaredWithin(v, job) {
					continue
				}
				if mentionsDerived(rhs) {
					derived[v] = true
					changed = true
				}
			}
			return true
		})
	}
	return derived
}

// indexIsJobDerived reports whether idx mentions at least one
// job-derived variable (and is therefore disjoint across jobs under
// the chunk convention).
func indexIsJobDerived(p *Pass, idx ast.Expr, derived map[*types.Var]bool) bool {
	found := false
	ast.Inspect(idx, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := p.Info.Uses[id].(*types.Var); ok && derived[v] {
				found = true
			}
		}
		return !found
	})
	return found
}
