// Package facadepurity enforces the layering contract of DESIGN.md
// ("Layering and the public facade") in one place, as types instead of
// greps:
//
//   - the godoc-visible surface of pkg/numaws — exported function and
//     method signatures, exported struct fields, embedded fields,
//     exported interface methods, exported variable and constant types —
//     names no type defined in an internal package. Internal types remain
//     free to appear in unexported fields and function bodies; that is
//     the point of a facade;
//   - binaries and examples (repro/cmd/..., repro/examples/...) import
//     only the facade, never repro/internal/... directly. The lint
//     infrastructure itself (repro/internal/lint/...) is exempt: the
//     numaws-vet binary is developer tooling, not a simulator embedder,
//     and couples to no engine internals;
//   - every package under pkg/numaws (the wire and results schemas the
//     facade re-exports as aliases) gets the same surface check and
//     imports no repro/internal/... package at all, so an alias can never
//     smuggle an internal type past the facade's own check.
//
// This analyzer supersedes the ad-hoc AST walk that lived in
// pkg/numaws/apiguard_test.go and the facade job's shell greps over
// `go list` output; the CI godoc grep stays as belt-and-braces. There is
// no suppression: the facade contract is absolute.
package facadepurity

import (
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the facade-layering checker.
var Analyzer = &analysis.Analyzer{
	Name: "facadepurity",
	Doc: "pkg/numaws's exported surface names no internal type, its subpackages import " +
		"no internal package, and cmd/examples import only the facade (no suppression: " +
		"the contract is absolute)",
	Run: run,
}

const facadePath = "repro/pkg/numaws"

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	switch {
	case path == facadePath:
		checkSurface(pass)
	case analysis.InPackage(path, facadePath):
		checkSurface(pass)
		checkImports(pass, false, "packages under pkg/numaws import no internal package")
	case analysis.InPackage(path, "repro/cmd") || analysis.InPackage(path, "repro/examples"):
		checkImports(pass, true, "binaries and examples build against the pkg/numaws facade only")
	}
	return nil
}

// checkImports flags direct imports of internal packages; lintOK exempts
// the lint suite (see the package doc), and why ends the diagnostic.
func checkImports(pass *analysis.Pass, lintOK bool, why string) {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, imp := range file.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(p, "repro/internal/") {
				continue
			}
			// The lint suite is developer tooling, not engine internals:
			// cmd/numaws-vet must wire the analyzers up.
			if lintOK && analysis.InPackage(p, "repro/internal/lint") {
				continue
			}
			pass.Reportf(imp.Pos(), "%s imports %s: %s", pass.Pkg.Path(), p, why)
		}
	}
}

// checkSurface walks the facade's exported objects and flags any internal
// type reachable through the godoc-visible parts of their types.
func checkSurface(pass *analysis.Pass) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		// Objects introduced by in-package test files (export_test.go)
		// are not part of the shipped surface.
		if pass.InTestFile(obj.Pos()) {
			continue
		}
		w := &walker{pass: pass, seen: map[types.Type]bool{}}
		switch obj := obj.(type) {
		case *types.Func:
			w.signature(obj.Pos(), "func "+name, obj.Type().(*types.Signature))
		case *types.TypeName:
			w.typeDecl(obj)
		case *types.Var, *types.Const:
			w.check(obj.Pos(), "var/const "+name, obj.Type(), true)
		}
	}
}

type walker struct {
	pass *analysis.Pass
	seen map[types.Type]bool
}

// internalObj returns the defining object of t when t directly names a
// type from an internal package.
func internalObj(t types.Type) *types.TypeName {
	var obj *types.TypeName
	switch t := t.(type) {
	case *types.Named:
		obj = t.Obj()
	case *types.Alias:
		obj = t.Obj()
	}
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	if strings.Contains(obj.Pkg().Path(), "/internal/") {
		return obj
	}
	return nil
}

// check reports t (or, when deep, any type reachable through it) if it
// names an internal type. deep descends through composite type structure;
// the godoc-visibility rules of typeDecl decide where deep traversal is
// warranted.
func (w *walker) check(pos token.Pos, where string, t types.Type, deep bool) {
	if w.seen[t] {
		return
	}
	w.seen[t] = true
	if obj := internalObj(t); obj != nil {
		w.pass.Reportf(pos, "%s leaks internal type %s.%s (%s) into the facade's exported surface",
			where, obj.Pkg().Name(), obj.Name(), obj.Pkg().Path())
		return
	}
	if !deep {
		return
	}
	switch t := t.(type) {
	case *types.Named:
		// A named non-internal type's own declaration is checked where it
		// is declared; referencing it leaks nothing here.
	case *types.Alias:
		w.check(pos, where, types.Unalias(t), true)
	case *types.Pointer:
		w.check(pos, where, t.Elem(), true)
	case *types.Slice:
		w.check(pos, where, t.Elem(), true)
	case *types.Array:
		w.check(pos, where, t.Elem(), true)
	case *types.Map:
		w.check(pos, where, t.Key(), true)
		w.check(pos, where, t.Elem(), true)
	case *types.Chan:
		w.check(pos, where, t.Elem(), true)
	case *types.Signature:
		w.signature(pos, where, t)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			w.check(pos, where, t.Field(i).Type(), true)
		}
	case *types.Interface:
		for i := 0; i < t.NumExplicitMethods(); i++ {
			m := t.ExplicitMethod(i)
			w.signature(m.Pos(), where+" method "+m.Name(), m.Type().(*types.Signature))
		}
		for i := 0; i < t.NumEmbeddeds(); i++ {
			w.check(pos, where, t.EmbeddedType(i), true)
		}
	}
}

// signature checks a function signature's parameters and results.
func (w *walker) signature(pos token.Pos, where string, sig *types.Signature) {
	for i := 0; i < sig.Params().Len(); i++ {
		w.check(pos, where, sig.Params().At(i).Type(), true)
	}
	for i := 0; i < sig.Results().Len(); i++ {
		w.check(pos, where, sig.Results().At(i).Type(), true)
	}
}

// typeDecl checks an exported type declaration: its godoc-visible parts
// are exported struct fields, embedded fields, exported interface
// methods, exported methods of the type itself — and, for any other
// underlying shape, the whole right-hand side.
func (w *walker) typeDecl(obj *types.TypeName) {
	where := "type " + obj.Name()
	if obj.IsAlias() {
		// Works whether or not go/types materializes *types.Alias: either
		// obj.Type() is the Alias (check unwraps it) or it is the aliased
		// type directly.
		w.check(obj.Pos(), where, obj.Type(), true)
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		w.check(obj.Pos(), where, obj.Type(), true)
		return
	}
	switch u := named.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if f.Exported() || f.Embedded() {
				w.check(f.Pos(), where+" field "+f.Name(), f.Type(), true)
			}
		}
	case *types.Interface:
		for i := 0; i < u.NumExplicitMethods(); i++ {
			m := u.ExplicitMethod(i)
			if m.Exported() {
				w.signature(m.Pos(), where+" method "+m.Name(), m.Type().(*types.Signature))
			}
		}
		for i := 0; i < u.NumEmbeddeds(); i++ {
			w.check(obj.Pos(), where, u.EmbeddedType(i), true)
		}
	default:
		w.check(obj.Pos(), where, u, true)
	}
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if m.Exported() {
			w.signature(m.Pos(), where+" method "+m.Name(), m.Type().(*types.Signature))
		}
	}
}
