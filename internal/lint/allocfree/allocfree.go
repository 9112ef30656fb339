// Package allocfree guards the PR-3 hot-path work: the simulator layers
// that EXPERIMENTS.md ("Simulator performance") documents as
// allocation-free in steady state — the 4-ary event queue, the
// precomputed victim pickers and the THE deque — stay that way at compile
// time, not just when someone runs the ReportAllocs benchmarks.
//
// A function annotated `//numaws:alloc-free` in its doc comment is
// checked, without SSA, for every construct that heap-allocates on the
// happy path:
//
//   - make, new, append (append's amortized growth included — a reused
//     backing array that never grows again is waived per line with
//     `//numaws:alloc-ok <reason>`);
//   - composite literals of slice or map type, and &T{...};
//   - function literals (closure capture);
//   - go statements;
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - boxing a non-pointer-shaped value into an interface;
//   - calls to anything not provably allocation-free: only builtins, a
//     small whitelist of stdlib packages (sync, sync/atomic, math,
//     math/bits, math/rand) and other `//numaws:alloc-free` functions are
//     legal callees; fmt in particular is flagged.
//
// Branches that unconditionally panic are exempt — panics are the failure
// path, and the repo funnels them through validated entry points whose
// messages may allocate (DESIGN.md: checkTime, checkNonEmpty).
//
// The analyzer also verifies coverage: the hot-path functions the docs
// name must actually carry the annotation, so deleting a comment (or the
// function) cannot silently retire the contract.
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the hot-path allocation checker.
var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc: "functions annotated //numaws:alloc-free must not allocate on the happy path, and the " +
		"documented hot-path functions must carry the annotation; waive single sites with //numaws:alloc-ok <reason>",
	Run: run,
}

// annotation is the doc-comment marker naming a function allocation-free.
const annotation = "alloc-free"

// hotPath lists, per package, the functions the performance docs
// (EXPERIMENTS.md "Simulator performance", DESIGN.md "Hot-path
// architecture") rely on being allocation-free: the event queue, victim
// selection, and the THE deque. Each must carry the annotation — and the
// table doubles as the cross-package set of known-alloc-free callees.
var hotPath = map[string][]string{
	"repro/internal/sim": {
		"Queue.Push", "Queue.Pop", "Queue.PushPop", "Queue.Peek",
		"Picker.Pick", "RNG.PickUniformExcept",
	},
	"repro/internal/deque": {
		"Deque.PushTail", "Deque.PopTail", "Deque.StealHead", "Deque.StealHalf",
	},
}

// calleeWhitelist are stdlib packages whose functions and methods do not
// allocate on the paths hot-path code uses them for.
var calleeWhitelist = map[string]bool{
	"sync":        true,
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
	"math/rand":   true,
}

func run(pass *analysis.Pass) error {
	if !analysis.InModule(pass.Pkg.Path()) {
		return nil
	}
	annotated := map[string]bool{}
	var decls []*ast.FuncDecl
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls = append(decls, fd)
			if analysis.HasAnnotation(fd, annotation) {
				annotated[declKey(fd)] = true
			}
		}
	}
	checkCoverage(pass, decls, annotated)
	for _, fd := range decls {
		if annotated[declKey(fd)] && fd.Body != nil {
			c := &checker{pass: pass, annotated: annotated}
			c.sup = analysis.NewSuppressions(pass.Fset, enclosingFile(pass, fd))
			c.block(fd.Body)
		}
	}
	return nil
}

// declKey names a declaration as Recv.Name or Name.
func declKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

// recvTypeName extracts the receiver's type name, stripping pointers and
// type parameters (*Deque[T] -> Deque).
func recvTypeName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// checkCoverage verifies that every hot-path function the docs name
// exists and carries the annotation.
func checkCoverage(pass *analysis.Pass, decls []*ast.FuncDecl, annotated map[string]bool) {
	required := hotPath[pass.Pkg.Path()]
	if len(required) == 0 {
		return
	}
	byKey := map[string]*ast.FuncDecl{}
	for _, fd := range decls {
		byKey[declKey(fd)] = fd
	}
	for _, key := range required {
		fd, ok := byKey[key]
		if !ok {
			if len(pass.Files) > 0 {
				pass.Reportf(pass.Files[0].Name.Pos(),
					"hot-path function %s named by EXPERIMENTS.md is missing from %s — "+
						"update the allocfree analyzer's hotPath table if it moved",
					key, pass.Pkg.Path())
			}
			continue
		}
		if !annotated[key] {
			pass.Reportf(fd.Name.Pos(),
				"hot-path function %s must be annotated //numaws:alloc-free (EXPERIMENTS.md pins it allocation-free)", key)
		}
	}
}

func enclosingFile(pass *analysis.Pass, fd *ast.FuncDecl) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= fd.Pos() && fd.Pos() <= f.FileEnd {
			return f
		}
	}
	return pass.Files[0]
}

// checker walks one annotated function body.
type checker struct {
	pass      *analysis.Pass
	annotated map[string]bool
	sup       *analysis.Suppressions
}

func (c *checker) report(n ast.Node, format string, args ...any) {
	ok, hasReason := c.sup.Suppressed("alloc-ok", n.Pos())
	if ok && hasReason {
		return
	}
	if ok {
		c.pass.Reportf(n.Pos(), "numaws:alloc-ok suppression is missing its mandatory reason")
		return
	}
	c.pass.Reportf(n.Pos(), format, args...)
}

// block walks a statement block, skipping branches that unconditionally
// panic (the validated failure paths).
func (c *checker) block(b *ast.BlockStmt) {
	if panics(b) {
		return
	}
	for _, stmt := range b.List {
		c.stmt(stmt)
	}
}

// panics reports whether the block's control flow ends in a panic call.
func panics(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	es, ok := b.List[len(b.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (c *checker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		c.block(s)
	case *ast.IfStmt:
		c.stmt(s.Init)
		c.expr(s.Cond)
		c.block(s.Body)
		c.stmt(s.Else)
	case *ast.ForStmt:
		c.stmt(s.Init)
		c.expr(s.Cond)
		c.stmt(s.Post)
		c.block(s.Body)
	case *ast.RangeStmt:
		c.expr(s.X)
		c.block(s.Body)
	case *ast.SwitchStmt:
		c.stmt(s.Init)
		c.expr(s.Tag)
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CaseClause)
			for _, e := range cc.List {
				c.expr(e)
			}
			for _, st := range cc.Body {
				c.stmt(st)
			}
		}
	case *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Type switches inspect an interface (no allocation), but hot-path
		// code has no business doing either; walk generically.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				c.expr(e)
				return false
			}
			return true
		})
	case *ast.AssignStmt:
		for i, rhs := range s.Rhs {
			c.expr(rhs)
			if len(s.Lhs) == len(s.Rhs) {
				c.checkBox(rhs, c.lhsType(s.Lhs[i]))
			}
		}
	case *ast.ExprStmt:
		c.expr(s.X)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e)
		}
	case *ast.IncDecStmt:
		c.expr(s.X)
	case *ast.DeferStmt:
		// defer of a func literal is caught by expr's FuncLit case; defer
		// of a method call (mutex unlock) is fine and open-coded.
		c.call(s.Call)
	case *ast.GoStmt:
		c.report(s, "go statement spawns a goroutine (allocates a stack) in an alloc-free function")
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, v := range vs.Values {
				c.expr(v)
				if len(vs.Names) == len(vs.Values) {
					if obj := c.pass.TypesInfo.Defs[vs.Names[i]]; obj != nil {
						c.checkBox(v, obj.Type())
					}
				}
			}
		}
	case *ast.SendStmt:
		c.expr(s.Chan)
		c.expr(s.Value)
	case *ast.BranchStmt, *ast.EmptyStmt, *ast.LabeledStmt:
		if ls, ok := s.(*ast.LabeledStmt); ok {
			c.stmt(ls.Stmt)
		}
	}
}

// lhsType resolves the static type of an assignment target.
func (c *checker) lhsType(lhs ast.Expr) types.Type {
	if id, ok := lhs.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
			return obj.Type()
		}
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	if tv, ok := c.pass.TypesInfo.Types[lhs]; ok {
		return tv.Type
	}
	return nil
}

func (c *checker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		c.call(e)
	case *ast.FuncLit:
		c.report(e, "function literal captures its closure on the heap in an alloc-free function")
	case *ast.CompositeLit:
		c.composite(e)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				c.report(e, "&composite literal escapes to the heap in an alloc-free function")
				return
			}
		}
		c.expr(e.X)
	case *ast.BinaryExpr:
		c.expr(e.X)
		c.expr(e.Y)
		if e.Op == token.ADD {
			if tv, ok := c.pass.TypesInfo.Types[e]; ok && tv.Value == nil {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					c.report(e, "string concatenation allocates in an alloc-free function")
				}
			}
		}
	case *ast.ParenExpr:
		c.expr(e.X)
	case *ast.StarExpr:
		c.expr(e.X)
	case *ast.SelectorExpr:
		c.expr(e.X)
	case *ast.IndexExpr:
		c.expr(e.X)
		c.expr(e.Index)
	case *ast.SliceExpr:
		c.expr(e.X)
		c.expr(e.Low)
		c.expr(e.High)
		c.expr(e.Max)
	case *ast.TypeAssertExpr:
		c.expr(e.X)
	}
}

// composite flags slice/map composite literals; value struct and array
// literals stay on the stack.
func (c *checker) composite(lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			c.expr(kv.Value)
		} else {
			c.expr(elt)
		}
	}
	tv, ok := c.pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		c.report(lit, "slice literal allocates its backing array in an alloc-free function")
	case *types.Map:
		c.report(lit, "map literal allocates in an alloc-free function")
	}
}

// call checks one call expression: builtins, conversions, then callee
// discipline and argument boxing.
func (c *checker) call(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Builtin?
	if id, ok := fun.(*ast.Ident); ok {
		if obj, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch obj.Name() {
			case "make":
				c.report(call, "make allocates in an alloc-free function")
			case "new":
				c.report(call, "new allocates in an alloc-free function")
			case "append":
				c.report(call, "append may grow its backing array in an alloc-free function; "+
					"waive a provably amortized site with //numaws:alloc-ok <reason>")
			case "panic":
				// Failure path: the panic value and its construction are
				// exempt, including fmt calls inside the argument.
				return
			}
			for _, arg := range call.Args {
				c.expr(arg)
			}
			return
		}
	}

	// Conversion?
	if tv, ok := c.pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		for _, arg := range call.Args {
			c.expr(arg)
			c.checkConversion(call, tv.Type, arg)
		}
		return
	}

	// Regular call: arguments first.
	for _, arg := range call.Args {
		c.expr(arg)
	}
	fn := c.callee(call)
	if fn == nil {
		c.report(call, "dynamic call (function value or interface method) in an alloc-free function: "+
			"the callee cannot be proven allocation-free")
		return
	}
	c.checkCallee(call, fn)
	c.checkArgBoxing(call, fn)
}

func (c *checker) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := c.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// checkCallee enforces the callee discipline: whitelisted stdlib,
// same-package annotated functions, or cross-package hot-path functions.
func (c *checker) checkCallee(call *ast.CallExpr, fn *types.Func) {
	pkg := fn.Pkg()
	if pkg == nil {
		return // error.Error etc. on universe types
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			c.report(call, "interface method call %s.%s in an alloc-free function: the dynamic callee "+
				"cannot be proven allocation-free", pkg.Name(), fn.Name())
			return
		}
	}
	key := funcKey(fn)
	if pkg == c.pass.Pkg {
		if !c.annotated[key] {
			c.report(call, "call to %s, which is not annotated //numaws:alloc-free", key)
		}
		return
	}
	if calleeWhitelist[pkg.Path()] {
		return
	}
	for _, k := range hotPath[pkg.Path()] {
		if k == key {
			return
		}
	}
	c.report(call, "call to %s.%s, which is not allocation-free (not whitelisted, not a documented "+
		"hot-path function)", pkg.Path(), key)
}

// funcKey names a types.Func as Recv.Name or Name, mirroring declKey.
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name() + "." + fn.Name()
	case *types.Alias:
		return t.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// checkConversion flags converting between string and byte/rune slices.
func (c *checker) checkConversion(at ast.Node, dst types.Type, src ast.Expr) {
	tv, ok := c.pass.TypesInfo.Types[src]
	if !ok {
		return
	}
	dstStr := isString(dst)
	srcStr := isString(tv.Type)
	_, dstSlice := dst.Underlying().(*types.Slice)
	_, srcSlice := tv.Type.Underlying().(*types.Slice)
	if (dstStr && srcSlice) || (dstSlice && srcStr) {
		c.report(at, "string<->slice conversion copies and allocates in an alloc-free function")
	}
	c.checkBox(src, dst)
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkArgBoxing flags arguments boxed into interface parameters.
func (c *checker) checkArgBoxing(call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if s, ok := last.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		c.checkBox(arg, pt)
	}
}

// checkBox flags storing a non-pointer-shaped concrete value into an
// interface-typed destination.
func (c *checker) checkBox(src ast.Expr, dst types.Type) {
	if dst == nil {
		return
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[src]
	if !ok || tv.Type == nil {
		return
	}
	st := tv.Type
	if b, ok := st.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	switch st.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: the interface data word holds it directly
	}
	c.report(src, "value of type %s is boxed into interface %s (heap allocation) in an alloc-free function",
		st, dst)
}
