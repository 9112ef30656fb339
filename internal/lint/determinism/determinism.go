// Package determinism enforces the repo's foundational contract: a
// simulation run is a pure function of (program, configuration, seed).
// DESIGN.md pins this dynamically with the paper-4x8 golden file; this
// analyzer makes the three ways contributors actually break it fail
// `go vet` instead of drifting until a golden diff appears:
//
//   - wall-clock reads (time.Now, time.Since, time.Until) — virtual time
//     is the only clock the simulator knows;
//   - the global math/rand (and math/rand/v2) top-level functions, whose
//     stream is shared, unseeded process state. Seeded sources
//     (rand.New(rand.NewSource(seed))) remain legal — they are exactly
//     how sim.RNG derives per-run randomness;
//   - ranging over a map, whose iteration order is deliberately
//     randomized by the runtime. The one recognized-safe shape is the
//     collect-then-sort idiom: a body that only appends the keys/values
//     to slices, each of which is later sorted in the same function.
//
// Scope: the deterministic core — internal/{sim,sched,cache,core,dag,
// workloads,harness,metrics} and the measurement schema pkg/numaws/results
// (it renders the tournament table) — excluding _test.go files. A violation that
// is provably order-independent (e.g. a max-reduction with a total-order
// tie-break) is waived line-by-line with `//numaws:nondet-ok <reason>`;
// the reason is mandatory.
package determinism

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the determinism contract checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall clocks, global math/rand and unordered map iteration in the simulator core; " +
		"suppress provably order-independent sites with //numaws:nondet-ok <reason>",
	Run: run,
}

// scope lists the packages (and their subpackages) whose code must be
// deterministic: everything a simulated event stream or a metrics row
// passes through.
var scope = []string{
	"repro/internal/sim",
	"repro/internal/sched",
	"repro/internal/cache",
	"repro/internal/core",
	"repro/internal/workloads",
	"repro/internal/harness",
	"repro/internal/metrics",
	"repro/pkg/numaws/results",
}

// bannedFuncs maps package path → function names whose call sites break
// determinism.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":   "reads the wall clock",
		"Since": "reads the wall clock",
		"Until": "reads the wall clock",
	},
	// The global top-level functions draw from a shared, unseeded
	// process-wide stream; New/NewSource/NewPCG etc. stay legal.
	"math/rand": {
		"Int": "", "Intn": "", "Int31": "", "Int31n": "", "Int63": "", "Int63n": "",
		"Uint32": "", "Uint64": "", "Float32": "", "Float64": "", "ExpFloat64": "",
		"NormFloat64": "", "Perm": "", "Shuffle": "", "Read": "", "Seed": "",
	},
	"math/rand/v2": {
		"Int": "", "IntN": "", "Int32": "", "Int32N": "", "Int64": "", "Int64N": "",
		"Uint": "", "UintN": "", "Uint32": "", "Uint32N": "", "Uint64": "", "Uint64N": "",
		"Float32": "", "Float64": "", "ExpFloat64": "", "NormFloat64": "",
		"Perm": "", "Shuffle": "", "N": "",
	},
}

func inScope(path string) bool {
	for _, p := range scope {
		if analysis.InPackage(path, p) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		sup := analysis.NewSuppressions(pass.Fset, file)
		report := func(pos ast.Node, format string, args ...any) {
			ok, hasReason := sup.Suppressed("nondet-ok", pos.Pos())
			if ok && hasReason {
				return
			}
			if ok {
				pass.Reportf(pos.Pos(), "numaws:nondet-ok suppression is missing its mandatory reason")
				return
			}
			pass.Reportf(pos.Pos(), format, args...)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, report, n)
			case *ast.RangeStmt:
				checkRange(pass, report, file, n)
			}
			return true
		})
	}
	return nil
}

// checkCall flags calls to the banned wall-clock and global-rand
// functions.
func checkCall(pass *analysis.Pass, report func(ast.Node, string, ...any), call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Only package-level functions are banned; methods on seeded values
	// ((*rand.Rand).Intn) are the sanctioned replacement.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	names, ok := bannedFuncs[fn.Pkg().Path()]
	if !ok {
		return
	}
	why, ok := names[fn.Name()]
	if !ok {
		return
	}
	if why == "" {
		why = "draws from the shared global stream; use a seeded rand.New(rand.NewSource(seed))"
	}
	report(call, "call to %s.%s %s — simulator code must be deterministic in (program, config, seed)",
		fn.Pkg().Path(), fn.Name(), why)
}

// calleeFunc resolves a call's static callee, if it is a named function
// or method.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// checkRange flags `for ... range m` over a map unless the body is the
// collect-then-sort idiom.
func checkRange(pass *analysis.Pass, report func(ast.Node, string, ...any), file *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if collectThenSort(pass, file, rng) {
		return
	}
	report(rng, "unordered iteration over %s: map range order is randomized; "+
		"collect the keys and sort, or waive with //numaws:nondet-ok <reason> if provably order-independent",
		tv.Type)
}

// collectThenSort reports whether every statement of the range body is an
// append of loop variables into a slice, and every such slice is passed
// to a sort call later in the enclosing function — the one map-iteration
// shape whose result is order-independent by construction.
func collectThenSort(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) bool {
	if len(rng.Body.List) == 0 {
		return false
	}
	var collected []*ast.Ident
	for _, stmt := range rng.Body.List {
		target, ok := appendTarget(stmt)
		if !ok {
			return false
		}
		collected = append(collected, target)
	}
	// Find the enclosing function body to search for the sort calls.
	encl := enclosingFuncBody(file, rng)
	if encl == nil {
		return false
	}
	for _, target := range collected {
		if !sortedAfter(pass, encl, rng, target) {
			return false
		}
	}
	return true
}

// appendTarget matches `x = append(x, ...)` and returns x.
func appendTarget(stmt ast.Stmt) (*ast.Ident, bool) {
	assign, ok := stmt.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil, false
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" || len(call.Args) < 2 {
		return nil, false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return nil, false
	}
	return lhs, true
}

// sortFuncs are the stdlib entry points that establish a deterministic
// order over a collected slice.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether target is the first argument of a sort call
// positioned after the range statement inside body.
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, rng *ast.RangeStmt, target *ast.Ident) bool {
	obj := pass.TypesInfo.Uses[target]
	if obj == nil {
		obj = pass.TypesInfo.Defs[target]
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() <= rng.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
			return true
		}
		if names, ok := sortFuncs[fn.Pkg().Path()]; !ok || !names[fn.Name()] {
			return true
		}
		arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if ok && obj != nil && pass.TypesInfo.Uses[arg] == obj {
			found = true
		}
		return !found
	})
	return found
}

// enclosingFuncBody returns the body of the innermost function containing
// pos.
func enclosingFuncBody(file *ast.File, n ast.Node) *ast.BlockStmt {
	var body *ast.BlockStmt
	ast.Inspect(file, func(cand ast.Node) bool {
		if cand == nil {
			return false
		}
		if cand.Pos() > n.Pos() || cand.End() < n.End() {
			return false
		}
		switch f := cand.(type) {
		case *ast.FuncDecl:
			if f.Body != nil {
				body = f.Body
			}
		case *ast.FuncLit:
			body = f.Body
		}
		return true
	})
	return body
}
