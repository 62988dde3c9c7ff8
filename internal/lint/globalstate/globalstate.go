// Package globalstate implements the optimuslint analyzer for shared-state
// hygiene in the simulation packages: package-level mutable state is
// forbidden unless it is explicitly accounted for.
//
// The parallel sweep pool already runs many platforms in one process, and
// the cluster orchestration direction (ROADMAP item 1) multiplies that —
// any mutable package-level var is state silently shared across platforms,
// which is a determinism bug (results depend on co-tenants) or a data race
// waiting for the race detector. All mutable state must hang off a
// platform; the analyzer enforces the residue.
//
// A package-level var in a scoped package is allowed when it is
//
//   - an error sentinel (type error) — immutable by convention;
//   - a sync primitive (sync.Mutex, sync.Once, sync.WaitGroup, …) — the
//     synchronization fabric itself. sync/atomic values are not exempt: an
//     atomic counter or toggle is mutable state shared by every platform
//     in the process, however race-free its updates;
//   - an unexported read-only table: a value of shallow-immutable type
//     (basic, string, array/struct thereof, func) that no function in the
//     package writes outside init — lookup tables stay cheap;
//   - or annotated `//optimus:global-ok <reason>` — the escape hatch for
//     init-time registries and single-flight caches, with the reason
//     mandatory so every exception carries its audit trail.
//
// Everything else — maps, slices, pointers, channels, interfaces, plain
// structs, and any var some function reassigns — is reported.
package globalstate

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"optimus/internal/lint"
)

// scopePkgs are the simulation packages: everything that runs inside (or
// assembles) a platform. Packages outside the wall (obs, algo tables, the
// lint framework itself) keep their process-wide registries.
var scopePkgs = map[string]bool{
	"sim":         true,
	"hv":          true,
	"ccip":        true,
	"accel":       true,
	"chaos":       true,
	"exp":         true,
	"load":        true,
	"mem":         true,
	"pagetable":   true,
	"guest":       true,
	"hostcentric": true,
}

// Analyzer is the globalstate check.
var Analyzer = &lint.Analyzer{
	Name:  "globalstate",
	Doc:   "flag package-level mutable state in simulation packages; platforms must own their state (//optimus:global-ok <reason> to except)",
	Scope: func(pkgPath string) bool { return scopePkgs[lint.PathBase(pkgPath)] },
	Run:   run,
}

const okDirective = "optimus:global-ok"

func run(pass *lint.Pass) error {
	written := writtenOutsideInit(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				annotated, reason := okAnnotation(gd, vs)
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					obj, ok := pass.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					if annotated {
						if strings.TrimSpace(reason) == "" {
							pass.Reportf(name.Pos(),
								"//optimus:global-ok on %s needs a reason", name.Name)
						}
						continue
					}
					if allowed(pass, name, obj, written) {
						continue
					}
					pass.Reportf(name.Pos(),
						"package-level mutable var %s (%s) in simulation package %s; hang it off the platform or annotate //optimus:global-ok <reason>",
						name.Name, types.TypeString(obj.Type(), types.RelativeTo(pass.Pkg)),
						lint.PathBase(pass.Pkg.Path()))
				}
			}
		}
	}
	return nil
}

// okAnnotation finds //optimus:global-ok on the var block, the spec's doc
// comment, or its trailing line comment, returning the reason text.
func okAnnotation(gd *ast.GenDecl, vs *ast.ValueSpec) (bool, string) {
	for _, cg := range []*ast.CommentGroup{gd.Doc, vs.Doc, vs.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if rest, ok := lint.CutDirective(c.Text, okDirective); ok {
				return true, rest
			}
		}
	}
	return false, ""
}

func allowed(pass *lint.Pass, name *ast.Ident, obj *types.Var, written map[types.Object]bool) bool {
	t := obj.Type()
	if isError(t) {
		return true
	}
	if declaredIn(t) == "sync" {
		return true
	}
	// Unexported read-only table: immutable value shape and never written
	// after initialization (exported vars are writable by other packages,
	// so they cannot earn this exemption). Atomics are struct-of-basics in
	// shape but written through their methods, which the write scan cannot
	// see, so they never qualify.
	if !name.IsExported() && declaredIn(t) != "sync/atomic" &&
		shallowImmutable(t, map[types.Type]bool{}) && !written[obj] {
		return true
	}
	return false
}

func isError(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// declaredIn returns the path of the package declaring named type t ("" for
// unnamed and universe types).
func declaredIn(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}

// shallowImmutable reports whether a value of type t exposes no mutable
// storage through a copy: basics, strings, funcs, and arrays/structs
// composed of the same. Maps, slices, pointers, chans, and interfaces all
// alias shared storage and are excluded.
func shallowImmutable(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return true
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return true
	case *types.Signature:
		return true
	case *types.Array:
		return shallowImmutable(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !shallowImmutable(u.Field(i).Type(), seen) {
				return false
			}
		}
		return true
	}
	return false
}

// writtenOutsideInit records every package-level var the package assigns,
// increments, or takes the address of anywhere outside func init. Writes
// inside init (and inside package-level initializer expressions, which run
// as part of initialization) are the sanctioned registration window.
func writtenOutsideInit(pass *lint.Pass) map[types.Object]bool {
	written := map[types.Object]bool{}
	note := func(expr ast.Expr) {
		if id := rootIdent(expr); id != nil {
			if obj, ok := pass.Info.Uses[id].(*types.Var); ok && obj.Parent() == pass.Pkg.Scope() {
				written[obj] = true
			}
		}
	}
	scan := func(body ast.Node) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					note(lhs)
				}
			case *ast.IncDecStmt:
				note(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					note(n.X) // address escapes: assume written
				}
			case *ast.RangeStmt:
				note(n.Key)
				note(n.Value)
			}
			return true
		})
	}
	// scanFuncLits scans only the func-literal subtrees of an init-time
	// node: the enclosing statements run once during initialization (the
	// sanctioned window), but a closure defined there can be stored and
	// invoked at any later point, so its writes count.
	scanFuncLits := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				scan(fl.Body)
				return false // scan already walked the whole subtree
			}
			return true
		})
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				if d.Recv == nil && d.Name.Name == "init" {
					scanFuncLits(d.Body)
					continue
				}
				scan(d.Body)
			case *ast.GenDecl:
				// Package-level initializer expressions also run during
				// initialization, but func literals appearing in them
				// (hook tables, default callbacks) execute later.
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							scanFuncLits(v)
						}
					}
				}
			}
		}
	}
	return written
}

// rootIdent unwraps x[i], x.f, *x, (x) down to the base identifier.
func rootIdent(expr ast.Expr) *ast.Ident {
	switch e := expr.(type) {
	case *ast.Ident:
		return e
	case *ast.IndexExpr:
		return rootIdent(e.X)
	case *ast.SelectorExpr:
		return rootIdent(e.X)
	case *ast.StarExpr:
		return rootIdent(e.X)
	case *ast.ParenExpr:
		return rootIdent(e.X)
	case *ast.SliceExpr:
		return rootIdent(e.X)
	}
	return nil
}
