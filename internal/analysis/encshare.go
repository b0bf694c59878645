package analysis

import (
	"go/ast"
	"go/types"
)

// EncShare guards the encoder-sharing contract. Encoders carry per-call
// scratch state (window buffers, bundling accumulators), so one encoder
// touched from two goroutines corrupts encodings silently — the results are
// plausible hypervectors, just wrong ones. The sanctioned fan-out vehicle
// is a per-worker clone (CloneMaterial), built before the fan-out and
// indexed by worker, or built inside the worker body.
//
// The analyzer flags any identifier of an encoder type (anything with an
// Encode([]float64, <int32-slice vector>) method, including the
// encoding.Encoder interface) that a function literal captures from an
// enclosing scope when that literal is either launched by a `go` statement
// or handed to parallel.For / ForChunks / ForErr. Encoders obtained inside
// the literal (per-worker slice index, clone, sync.Pool Get) are declared
// in the literal's own scope and pass.
var EncShare = &Analyzer{
	Name: "encshare",
	Doc:  "forbid capturing a shared encoder in go statements or parallel.For bodies",
	Run:  runEncShare,
}

func runEncShare(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkCallLits(pass, n.Call, "a go statement")
			case *ast.CallExpr:
				if name, ok := parallelCallee(pass.Info, n); ok {
					checkCallLits(pass, n, "parallel."+name)
				}
			}
			return true
		})
	}
}

// parallelCallee matches calls into the module's internal/parallel package.
func parallelCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !pathHasSuffix(fn.Pkg().Path(), "internal/parallel") {
		return "", false
	}
	switch fn.Name() {
	case "For", "ForChunks", "ForErr":
		return fn.Name(), true
	}
	return "", false
}

// checkCallLits inspects every function literal in the call — the callee of
// `go func(){...}()` as well as literal arguments — for captured encoders.
func checkCallLits(pass *Pass, call *ast.CallExpr, context string) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		checkCapturedEncoders(pass, lit, context)
	}
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok {
			checkCapturedEncoders(pass, lit, context)
		}
	}
}

// checkCapturedEncoders reports every encoder-typed identifier inside lit
// whose declaration lies outside the literal (a capture).
func checkCapturedEncoders(pass *Pass, lit *ast.FuncLit, context string) {
	// Field and method selections (x.enc, e.Encode) resolve their Sel ident
	// to an object declared at the type definition; only the base identifier
	// expresses a capture, so selector Sels are excluded.
	selNames := map[*ast.Ident]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			selNames[sel.Sel] = true
		}
		return true
	})
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || selNames[id] {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal: not a capture
		}
		if !isEncoderType(v.Type()) {
			return true
		}
		pass.Reportf(id.Pos(), "encoder %q is captured by %s: encoders carry window scratch state and are not concurrency-safe; fan out through per-worker clones (CloneMaterial)", id.Name, context)
		return true
	})
}

// isEncoderType reports whether t (or *t) has an Encode method with the
// library encoder shape: exactly two parameters, a []float64 input and an
// int32-slice-based hypervector output, and no results. This catches the
// encoding.Encoder interface, every concrete encoder, and aliases, without
// tying the analyzer to one package's type identity.
func isEncoderType(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Encode")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	in, ok := sig.Params().At(0).Type().Underlying().(*types.Slice)
	if !ok || !isBasic(in.Elem(), types.Float64) {
		return false
	}
	out, ok := sig.Params().At(1).Type().Underlying().(*types.Slice)
	return ok && isBasic(out.Elem(), types.Int32)
}

func isBasic(t types.Type, kind types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

// pathHasSuffix reports whether path equals suffix or ends with "/"+suffix.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || len(path) > len(suffix) && path[len(path)-len(suffix)-1] == '/' && path[len(path)-len(suffix):] == suffix
}
