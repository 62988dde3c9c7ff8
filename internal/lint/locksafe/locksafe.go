// Package locksafe implements the optimuslint analyzer for the two lock
// bugs that matter in the simulator's concurrent pieces: copying a
// mutex-containing struct by value — the copy's lock state diverges
// silently — and Lock/Unlock imbalance within a function. Platform state
// (page tables, IOTLB, metrics registry) is owned by one goroutine and has
// no lock; the locks that remain are obs.Collector's, shared by a sweep's
// workers, and exp.Session's template cache.
//
// The copy check follows `go vet -copylocks` in spirit: any struct that
// transitively contains a sync.Mutex or sync.RWMutex must move by
// pointer. Composite-literal initialization and constructor return values
// are not copies of a *used* lock and are allowed. The imbalance check is
// intra-procedural and counts deferred unlocks; a function that acquires
// more times than it releases (per lock expression, Lock/Unlock and
// RLock/RUnlock matched separately) is flagged.
package locksafe

import (
	"go/ast"
	"go/types"

	"optimus/internal/lint"
)

// Analyzer is the locksafe check. Like go vet's copylocks it applies
// everywhere, not to a package subset.
var Analyzer = &lint.Analyzer{
	Name: "locksafe",
	Doc:  "flag by-value copies of mutex-containing structs and intra-function Lock/Unlock imbalance",
	Run:  run,
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkCopies(pass, fn)
			checkBalance(pass, fn)
		}
	}
	return nil
}

// hasMutex reports whether t transitively contains a sync.Mutex or
// sync.RWMutex by value.
func hasMutex(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
			(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if hasMutex(st.Field(i).Type(), seen) {
			return true
		}
	}
	return false
}

func mutexType(t types.Type) bool {
	return t != nil && hasMutex(t, map[types.Type]bool{})
}

func checkCopies(pass *lint.Pass, fn *ast.FuncDecl) {
	// Parameters (and results) passed by value.
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := pass.Info.Types[field.Type].Type
			if t == nil || !mutexType(t) {
				continue
			}
			pos := field.Type.Pos()
			if len(field.Names) > 0 {
				pos = field.Names[0].Pos()
			}
			pass.Reportf(pos,
				"%s passes %s by value, copying its mutex; use a pointer",
				what, types.TypeString(t, types.RelativeTo(pass.Pkg)))
		}
	}
	check(fn.Type.Params, "parameter")
	check(fn.Type.Results, "result")

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isCopySource(rhs) {
					continue
				}
				// Discarding (_ = x) makes no second usable copy.
				if len(n.Lhs) == len(n.Rhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue
					}
				}
				t := pass.Info.Types[rhs].Type
				if mutexType(t) {
					pass.Reportf(rhs.Pos(),
						"assignment copies %s, which contains a mutex; use a pointer",
						types.TypeString(t, types.RelativeTo(pass.Pkg)))
				}
			}
		case *ast.RangeStmt:
			if n.Value == nil {
				return true
			}
			var t types.Type
			if id, ok := n.Value.(*ast.Ident); ok {
				// := range defines the value ident; its type lives in Defs.
				if obj := pass.Info.Defs[id]; obj != nil {
					t = obj.Type()
				} else if obj := pass.Info.Uses[id]; obj != nil {
					t = obj.Type()
				}
			} else {
				t = pass.Info.Types[n.Value].Type
			}
			if mutexType(t) {
				pass.Reportf(n.Value.Pos(),
					"range copies %s elements by value, copying their mutex; range over indices or pointers",
					types.TypeString(t, types.RelativeTo(pass.Pkg)))
			}
		}
		return true
	})
}

// isCopySource reports whether rhs reads an existing value (a copy), as
// opposed to creating a fresh one (composite literal, constructor call) —
// initializing a never-locked value is fine.
func isCopySource(rhs ast.Expr) bool {
	switch rhs := rhs.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true // *p dereference copies the pointee
	case *ast.ParenExpr:
		return isCopySource(rhs.X)
	}
	return false
}

// lockKind classifies a selector call as lock-acquire or -release.
func lockKind(name string) (key string, acquire, release bool) {
	switch name {
	case "Lock":
		return "Lock", true, false
	case "Unlock":
		return "Lock", false, true
	case "RLock":
		return "RLock", true, false
	case "RUnlock":
		return "RLock", false, true
	}
	return "", false, false
}

func checkBalance(pass *lint.Pass, fn *ast.FuncDecl) {
	type counts struct {
		acquired, released int
		pos                ast.Node
	}
	locks := map[string]*counts{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures balance their own critical sections
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		kind, acq, rel := lockKind(sel.Sel.Name)
		if kind == "" {
			return true
		}
		// Only count the sync package's lock methods (including ones
		// promoted from embedded mutexes), not unrelated Lock methods.
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Obj().Pkg() == nil || selection.Obj().Pkg().Path() != "sync" {
			return true
		}
		key := types.ExprString(sel.X) + "." + kind
		c := locks[key]
		if c == nil {
			c = &counts{pos: call}
			locks[key] = c
		}
		if acq {
			c.acquired++
		}
		if rel {
			c.released++
		}
		return true
	})
	for key, c := range locks {
		if c.acquired > c.released {
			pass.Reportf(c.pos.Pos(),
				"%s acquired %d time(s) but released %d time(s) in this function; a hung sweep worker deadlocks the whole experiment",
				key, c.acquired, c.released)
		}
	}
}
