// Package faultpath implements the optimuslint analyzer guarding the fault
// propagation contract introduced with internal/chaos: once fault injection
// can make a boundary fail (transient translation faults exhausting their
// retry budget, page pins failing during the shadow-paging hypercall), a
// caller that silently discards that boundary's error turns an injected,
// contained fault into latent corruption — the job continues against memory
// it never mapped, or reports success for work that failed.
//
// The boundaries are the guest-visible entry points the injector can reach:
// guest.Device's DMA-provisioning, register, buffer-write and job-lifecycle
// calls, and the hypervisor's hypercall/MMIO surface. A finding is a
// statement that drops such a call's error — a bare expression statement,
// or an assignment whose error position is the blank identifier. Deliberate
// drops (an adversarial model shrugging off rejections, teardown paths) are
// annotated //optimus:fault-ok on the statement or the line above.
//
// Scope: the packages that drive jobs — internal/exp, internal/guest,
// internal/hv, internal/chaos, and the two CLIs. Test files are outside the
// loader's reach (lint.Load parses GoFiles only), so table-driven tests may
// keep their terse provisioning.
package faultpath

import (
	"go/ast"
	"go/types"

	"optimus/internal/lint"
)

var scopePkgs = map[string]bool{
	"exp":           true,
	"guest":         true,
	"hv":            true,
	"chaos":         true,
	"optimus-sim":   true,
	"optimus-bench": true,
}

// boundaries maps package base → method names whose trailing error result
// carries injected-fault outcomes and must not be dropped.
var boundaries = map[string]map[string]bool{
	"guest": {
		"AllocDMA":         true,
		"SetupStateBuffer": true,
		"Start":            true,
		"Run":              true,
		"Wait":             true,
		// RegWrite wraps the BAR0Write trap; Write lands in DMA memory
		// whose pages a fault may have left unmapped.
		"RegWrite": true,
		"Write":    true,
	},
	"hv": {
		"MapPage":   true,
		"BAR0Write": true,
		"BAR2Write": true,
	},
}

// Analyzer is the faultpath check.
var Analyzer = &lint.Analyzer{
	Name:  "faultpath",
	Doc:   "forbid discarding errors from fault-injectable boundaries (guest provisioning/register/write/job calls, hv hypercall and MMIO surface) unless annotated //optimus:fault-ok",
	Scope: func(pkgPath string) bool { return scopePkgs[lint.PathBase(pkgPath)] },
	Run:   run,
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		file := file
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, ok := s.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name := boundaryCall(pass, call); name != "" &&
					!lint.StmtHasDirective(pass.Fset, file, s.Pos(), "optimus:fault-ok") {
					pass.Reportf(s.Pos(),
						"%s can fail under fault injection and its error is discarded; handle it or annotate //optimus:fault-ok", name)
				}
			case *ast.AssignStmt:
				if len(s.Rhs) != 1 {
					return true
				}
				call, ok := s.Rhs[0].(*ast.CallExpr)
				if !ok || len(s.Lhs) == 0 {
					return true
				}
				name := boundaryCall(pass, call)
				if name == "" {
					return true
				}
				// The error is the call's last result, so it lands in the
				// last assignee.
				last, ok := s.Lhs[len(s.Lhs)-1].(*ast.Ident)
				if ok && last.Name == "_" &&
					!lint.StmtHasDirective(pass.Fset, file, s.Pos(), "optimus:fault-ok") {
					pass.Reportf(s.Pos(),
						"%s can fail under fault injection and its error is assigned to _; handle it or annotate //optimus:fault-ok", name)
				}
			}
			return true
		})
	}
	return nil
}

// boundaryCall reports the qualified name of the fault-injectable boundary
// the call resolves to, or "" if it is not one. A boundary must come from
// the expected package and still return error as its last result — if a
// refactor changes either, the old name silently stops matching rather than
// misfiring.
func boundaryCall(pass *lint.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if ok && fn.Pkg() != nil && boundaries[lint.PathBase(fn.Pkg().Path())][fn.Name()] && lastResultIsError(fn) {
		return lint.PathBase(fn.Pkg().Path()) + "." + fn.Name()
	}
	return ""
}

func lastResultIsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}
