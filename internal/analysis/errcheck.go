package analysis

import (
	"go/ast"
	"go/types"
)

// runErrcheck flags discarded error results from the fallible device-layer
// APIs (packages in devicePkgs). Those errors carry injected device faults,
// media corruption, and log-full conditions; dropping one silently converts
// a detectable failure into data loss. Three discard shapes are reported:
//
//	dev.CheckWriteFault(0, 64)     // expression statement
//	_ = dev.CheckWriteFault(0, 64) // blank assignment
//	v, _ := zone.Read(slot)        // blank at an error position
//	go log.Commit(h) / defer ...   // result unobservable
//
// A same-line //nolint:errcheck comment suppresses the finding; every such
// escape in the tree is expected to justify itself in a comment.
//
// One hop is followed: a function of the package under check that returns an
// error and itself calls a fallible device API is fallible too — its error
// result is where the device's surfaces — so dropping *its* result is the
// same loss one frame up (the shape that hid a discarded B-tree delete error
// behind a plane helper). The summary is per function and not transitive:
// each further hop is checked where it happens.
func runErrcheck(p *pass) {
	// The per-function summary behind the one-hop rule: every function with
	// an error result that calls a fallible device API, mapped to (the first)
	// such API it calls.
	carriers := summarize(p.Module, func(pkg *Package, fd *ast.FuncDecl) *types.Func {
		var dev *types.Func
		if returnsError(pkg.Info.Defs[fd.Name].(*types.Func)) {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && dev == nil {
					dev = fallibleDeviceCall(pkg.Info, call)
				}
				return dev == nil
			})
		}
		return dev
	})
	for _, pkg := range p.pkgs {
		// Only a function of the package under check counts as a carrier:
		// each further hop is checked where it happens.
		carried := func(fn *types.Func) *types.Func {
			if fn == nil || fn.Pkg() != pkg.Pkg {
				return nil
			}
			return carriers[fn]
		}
		report := func(call *ast.CallExpr, fn *types.Func, how string) {
			from := fn.Pkg().Name() + "." + fn.Name()
			if dev := carried(fn); dev != nil {
				from += ", which returns " + dev.Pkg().Name() + "." + dev.Name() + "'s"
			}
			p.report(call.Pos(), "%s error result from %s (device-layer errors must be handled or //nolint:errcheck-justified)", how, from)
		}
		fallible := func(call *ast.CallExpr) *types.Func {
			if fn := fallibleDeviceCall(pkg.Info, call); fn != nil {
				return fn
			}
			if fn := calleeFunc(pkg.Info, call); carried(fn) != nil {
				return fn
			}
			return nil
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						if fn := fallible(call); fn != nil {
							report(call, fn, "discarded")
						}
						return true
					}
				case *ast.GoStmt:
					if fn := fallible(n.Call); fn != nil {
						report(n.Call, fn, "unobservable (go)")
					}
				case *ast.DeferStmt:
					if fn := fallible(n.Call); fn != nil {
						report(n.Call, fn, "unobservable (defer)")
					}
				case *ast.AssignStmt:
					if len(n.Rhs) != 1 {
						return true
					}
					call, ok := n.Rhs[0].(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := fallible(call)
					if fn == nil {
						return true
					}
					sig := fn.Type().(*types.Signature)
					res := sig.Results()
					if res.Len() == len(n.Lhs) {
						for i := 0; i < res.Len(); i++ {
							if !types.Identical(res.At(i).Type(), errorType) {
								continue
							}
							if id, blank := n.Lhs[i].(*ast.Ident); blank && id.Name == "_" {
								report(call, fn, "discarded (blank)")
							}
						}
					}
				}
				return true
			})
		}
	}
}

func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errorType) {
			return true
		}
	}
	return false
}

// fallibleDeviceCall returns the called function if it is declared in a
// device package and returns an error, else nil.
func fallibleDeviceCall(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !devicePkgs[fn.Pkg().Path()] {
		return nil
	}
	if !returnsError(fn) {
		return nil
	}
	return fn
}
