package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// DimGuard enforces the kernel precondition contract in internal/hdc: every
// exported function or method that operates on two or more hypervectors
// (Vec or BinVec, by value or pointer, receiver included) must begin with a
// dimensionality check that panics with the "hdc:" prefix. Vector kernels
// are plain loops over parallel slices; without the leading guard a length
// mismatch either panics with a bare index error deep in the loop or — for
// word-packed kernels — silently reads short. The guard may be direct (an if
// statement panicking with an "hdc:"-prefixed message) or delegated to a
// package-local checker (mustSameLen, fusedCheck, check*).
var DimGuard = &Analyzer{
	Name: "dimguard",
	Doc:  "require exported internal/hdc kernels on two vectors to lead with an hdc:-prefixed dimensionality check",
	Run:  runDimGuard,
}

func runDimGuard(pass *Pass) {
	if !pathHasSuffix(pass.Path, "internal/hdc") {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if countVectorParams(pass, fd) < 2 {
				continue
			}
			if len(fd.Body.List) > 0 && isDimGuardStmt(pass, fd.Body.List[0]) {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "exported kernel %s takes multiple hypervectors but does not begin with a dimensionality check that panics with the \"hdc:\" prefix", fd.Name.Name)
		}
	}
}

// countVectorParams counts receiver and parameter entries whose type is the
// package's Vec or BinVec (possibly behind a pointer).
func countVectorParams(pass *Pass, fd *ast.FuncDecl) int {
	n := 0
	count := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if !isVectorType(pass, pass.Info.TypeOf(field.Type)) {
				continue
			}
			// An unnamed entry (receiver or `Vec` in a signature) is one
			// vector; `a, b *BinVec` is two.
			if len(field.Names) == 0 {
				n++
			} else {
				n += len(field.Names)
			}
		}
	}
	count(fd.Recv)
	count(fd.Type.Params)
	return n
}

// isVectorType recognizes the hdc hypervector types by name within the
// analyzed package: Vec and BinVec, by value or pointer. With Acc added
// (hotVectorType) it is also hotalloc's default-hot parameter set.
func isVectorType(pass *Pass, t types.Type) bool {
	name := hdcTypeName(pass, t)
	return name == "Vec" || name == "BinVec"
}

// hdcTypeName returns the name of t, behind at most one pointer, when it is
// a named type declared in the analyzed package, and "" otherwise.
func hdcTypeName(pass *Pass, t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != pass.Pkg {
		return ""
	}
	return named.Obj().Name()
}

// isDimGuardStmt reports whether stmt is an acceptable leading guard: a call
// to a package-local checker (must*/check*/...Check) — bare or as the sole
// right-hand side of an assignment — or an if statement that panics with an
// "hdc:"-prefixed message.
func isDimGuardStmt(pass *Pass, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && isCheckerName(calleeName(call))
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return false
		}
		call, ok := s.Rhs[0].(*ast.CallExpr)
		return ok && isCheckerName(calleeName(call))
	case *ast.IfStmt:
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "panic" {
				return true
			}
			if len(call.Args) == 1 && panicsWithHDCPrefix(call.Args[0]) {
				found = true
				return false
			}
			return true
		})
		return found
	}
	return false
}

// isCheckerName matches the package-local guard naming convention.
func isCheckerName(name string) bool {
	return strings.HasPrefix(name, "must") || strings.HasPrefix(name, "check") || strings.Contains(name, "Check")
}

// calleeName extracts the bare function or method name of a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// panicsWithHDCPrefix reports whether the panic argument is an "hdc:"-
// prefixed string literal, directly or as the format of a nested call
// (fmt.Sprintf and friends).
func panicsWithHDCPrefix(arg ast.Expr) bool {
	switch a := arg.(type) {
	case *ast.BasicLit:
		s, err := strconv.Unquote(a.Value)
		return err == nil && strings.HasPrefix(s, "hdc:")
	case *ast.CallExpr:
		if len(a.Args) > 0 {
			return panicsWithHDCPrefix(a.Args[0])
		}
	}
	return false
}
