package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Function-level directives recognized by the hotalloc analyzer. They live in
// the doc comment directly above the function, staticcheck-directive style:
//
//	//generic:hotpath
//	func (e *rpEncoder) Encode(x []float64, out hdc.Vec) { ... }
//
// //generic:coldpath opts an internal/hdc kernel out of the default-hot rule.
const (
	hotpathDirective  = "generic:hotpath"
	coldpathDirective = "generic:coldpath"
)

// HotAlloc enforces the hot-path performance contract: a function annotated
// //generic:hotpath (or an exported internal/hdc kernel taking a hypervector,
// hot by default) runs on the per-sample encode/predict/update path and must
// not allocate. The analyzer flags, inside such functions:
//
//   - heap-escaping composite literals (&T{...}, slice and map literals)
//   - make/new — per-call buffer allocation (a make guarded by a nil/len/cap
//     check is sanctioned lazy init)
//   - append without provably preallocated capacity
//   - defer, closures, and go statements
//   - interface boxing: concrete values passed to interface parameters or
//     converted to interface types
//   - string↔[]byte conversions, which copy
//   - calls to helpers that are neither hotpath-annotated themselves, nor
//     small enough to inline, nor in the sanctioned alloc-free call set
//     (internal/{hdc,telemetry,perf,rng,quality}, math, math/bits,
//     sync/atomic, time)
//
// Guard blocks that end in panic are dead on the hot path and are skipped, so
// the dimguard-mandated dimension checks (which format a message and panic)
// do not trip the contract. The optional generic-lint -escapes mode
// reconciles this heuristic view with the compiler's escape analysis.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocation in //generic:hotpath functions and default-hot internal/hdc kernels",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	hot, decls := hotFuncs(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil && hot[obj] {
				checkHotFunc(pass, fd, hot, decls)
			}
		}
	}
}

// hotFuncs selects the package's hot functions and indexes every top-level
// declaration so hot callers can vet package-local callees.
func hotFuncs(pass *Pass) (hot map[types.Object]bool, decls map[types.Object]*ast.FuncDecl) {
	hot = map[types.Object]bool{}
	decls = map[types.Object]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			decls[obj] = fd
			if hasDirective(fd, coldpathDirective) {
				continue
			}
			if hasDirective(fd, hotpathDirective) || defaultHotKernel(pass, fd) {
				hot[obj] = true
			}
		}
	}
	return hot, decls
}

// hasDirective reports whether the function's doc comment carries the given
// machine directive (exact line, no leading space after //).
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == "//"+directive {
			return true
		}
	}
	return false
}

// defaultHotKernel implements the default-hot rule: in internal/hdc, every
// exported function taking at least one hypervector parameter (Vec, BinVec,
// or Acc) is a kernel on the per-sample path. Receivers alone do not qualify
// — constructors and cold maintenance methods live on the same types — and
// allocating constructors (New*, Clone*, Random*) and String are exempt by
// name. //generic:coldpath opts out explicitly.
func defaultHotKernel(pass *Pass, fd *ast.FuncDecl) bool {
	if !pathHasSuffix(pass.Path, "internal/hdc") || !fd.Name.IsExported() {
		return false
	}
	name := fd.Name.Name
	if strings.HasPrefix(name, "New") || strings.HasPrefix(name, "Clone") ||
		strings.HasPrefix(name, "Random") || name == "String" {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if hotVectorType(pass, pass.Info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// hotVectorType is dimguard's isVectorType plus Acc: the parameter types
// that make an exported internal/hdc function a default-hot kernel.
func hotVectorType(pass *Pass, t types.Type) bool {
	return isVectorType(pass, t) || hdcTypeName(pass, t) == "Acc"
}

// sanctionedCallPkg lists the packages hotpath code may call into: the HDC
// kernels themselves plus the instrumentation and math layers, all of which
// are alloc-free on their fast paths (and themselves under this analyzer or
// the alloc-budget gate).
func sanctionedCallPkg(path string) bool {
	for _, s := range [...]string{"internal/hdc", "internal/telemetry", "internal/perf", "internal/rng", "internal/quality"} {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	switch path {
	case "math", "math/bits", "sync/atomic", "time":
		return true
	}
	return false
}

// checkHotFunc walks one hot function body with an ancestor stack, skipping
// cold regions (blocks that end in panic, and panic arguments).
func checkHotFunc(pass *Pass, fd *ast.FuncDecl, hot map[types.Object]bool, decls map[types.Object]*ast.FuncDecl) {
	name := fd.Name.Name
	prealloc := preallocatedLocals(pass, fd.Body)
	cold := coldRegions(pass, fd.Body)
	var stack []ast.Node
	coldDepth := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cold[top] {
				coldDepth--
			}
			return true
		}
		stack = append(stack, n)
		if cold[n] {
			coldDepth++
		}
		if coldDepth > 0 {
			return true
		}
		// prune pops the node Inspect will not send a nil for when we
		// decline to descend.
		prune := func() bool {
			stack = stack[:len(stack)-1]
			if cold[n] {
				coldDepth--
			}
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "hotpath %s uses defer: the deferred frame is per-call overhead and delays the epilogue; restructure without defer", name)
			return prune()
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "hotpath %s spawns a goroutine: fan-out belongs on the batch layer, not in a per-sample kernel", name)
			return prune()
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "hotpath %s allocates a closure: a func literal here escapes per call; hoist it or pass state explicitly", name)
			return prune()
		case *ast.CompositeLit:
			if len(stack) >= 2 {
				if u, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && u.Op == token.AND {
					pass.Reportf(u.Pos(), "hotpath %s heap-allocates &%s per call; reuse a struct field or pool entry", name, types.ExprString(n.Type))
					return prune()
				}
			}
			switch pass.Info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "hotpath %s allocates a slice literal per call; preallocate the backing store outside the hot path", name)
			case *types.Map:
				pass.Reportf(n.Pos(), "hotpath %s allocates a map literal per call; preallocate outside the hot path", name)
			}
		case *ast.CallExpr:
			if !checkHotCall(pass, name, n, stack, hot, decls, prealloc) {
				return prune()
			}
		}
		return true
	})
}

// checkHotCall applies the call-site checks: conversions, allocating
// builtins, helper-call vetting, and interface boxing. It returns false to
// prune the subtree (the caller reports nothing further inside it).
func checkHotCall(pass *Pass, name string, call *ast.CallExpr, stack []ast.Node,
	hot map[types.Object]bool, decls map[types.Object]*ast.FuncDecl, prealloc map[types.Object]bool) bool {

	// Type conversions: T(x).
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := pass.Info.TypeOf(call.Args[0])
		switch {
		case stringBytesConv(dst, src):
			pass.Reportf(call.Pos(), "hotpath %s converts between string and []byte, which copies per call; keep one representation end to end", name)
		case boxes(dst, src):
			pass.Reportf(call.Pos(), "hotpath %s converts concrete %s to interface %s: boxing allocates; use the concrete type", name, src, dst)
		}
		return true
	}

	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				if !appendsToPrealloc(pass, call, prealloc) {
					pass.Reportf(call.Pos(), "hotpath %s appends without preallocated capacity: growth reallocates and copies; size the buffer up front with make(T, len, cap)", name)
				}
			case "make":
				if !lazyInitGuarded(stack) {
					pass.Reportf(call.Pos(), "hotpath %s allocates with make per call; move the buffer into a struct scratch field or sync.Pool (lazy init behind a nil/len/cap guard is fine)", name)
				}
			case "new":
				pass.Reportf(call.Pos(), "hotpath %s heap-allocates with new per call; reuse a struct field or pool entry", name)
			}
			return true
		}
	}

	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		// Func values, method expressions, universe-scope methods
		// (error.Error): nothing to vet statically.
		return true
	}
	boxingAtCall(pass, name, call)
	if fn.Pkg() == pass.Pkg {
		obj := types.Object(fn)
		if hot[obj] {
			return true
		}
		if decl := decls[obj]; decl != nil && inlinable(decl) {
			return true
		}
		pass.Reportf(call.Pos(), "hotpath %s calls %s, which is neither //generic:hotpath nor small enough to inline; annotate the helper (it will then be checked too) or shrink it", name, fn.Name())
		return true
	}
	if !sanctionedCallPkg(fn.Pkg().Path()) {
		pass.Reportf(call.Pos(), "hotpath %s calls %s.%s outside the sanctioned hot-call set (internal/{hdc,telemetry,perf,rng,quality}, math, math/bits, sync/atomic, time)", name, fn.Pkg().Name(), fn.Name())
	}
	return true
}

// calleeFunc resolves a call's static target, or nil for func values and
// builtins.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.ParenExpr:
		inner := &ast.CallExpr{Fun: fun.X, Args: call.Args, Ellipsis: call.Ellipsis}
		return calleeFunc(pass, inner)
	}
	return nil
}

// boxingAtCall flags concrete values passed to interface parameters: each
// such argument is boxed, which allocates unless the compiler can prove
// otherwise (the -escapes mode confirms).
func boxingAtCall(pass *Pass, name string, call *ast.CallExpr) {
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed through whole
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !boxes(pt, pass.Info.TypeOf(arg)) {
			continue
		}
		pass.Reportf(arg.Pos(), "hotpath %s passes concrete %s to an interface parameter: boxing allocates per call", name, pass.Info.TypeOf(arg))
	}
}

// boxes reports whether assigning a src value to a dst location is a
// concrete-to-interface conversion.
func boxes(dst, src types.Type) bool {
	if dst == nil || src == nil || !types.IsInterface(dst) || types.IsInterface(src) {
		return false
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}

// stringBytesConv reports a string↔[]byte conversion in either direction.
func stringBytesConv(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	}
	return (isStr(dst) && isBytes(src)) || (isBytes(dst) && isStr(src))
}

// preallocatedLocals collects locals initialized from a make with an explicit
// capacity (make([]T, len, cap)); appending to those is sanctioned — the
// capacity was sized up front, so growth never reallocates.
func preallocatedLocals(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) < 3 {
			return
		}
		if fid, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := pass.Info.Uses[fid].(*types.Builtin); ok && b.Name() == "make" {
				if obj := pass.Info.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// appendsToPrealloc reports whether the append's destination is a local with
// provably preallocated capacity.
func appendsToPrealloc(pass *Pass, call *ast.CallExpr, prealloc map[types.Object]bool) bool {
	if len(call.Args) == 0 {
		return false
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.ObjectOf(id)
	return obj != nil && prealloc[obj]
}

// lazyInitGuarded reports whether the node sits inside an if whose condition
// inspects storage state (nil, len, cap) — the sanctioned amortized-growth
// pattern: allocate once, on first use or on capacity exhaustion.
func lazyInitGuarded(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				switch id.Name {
				case "nil", "len", "cap":
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// coldRegions marks subtrees dead on the hot path: bodies of if statements
// that end in panic (guard blocks), and panic calls themselves (their
// message formatting runs only when the contract is already violated).
func coldRegions(pass *Pass, body *ast.BlockStmt) map[ast.Node]bool {
	cold := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if blockEndsInPanic(pass, n.Body) {
				cold[n.Body] = true
			}
		case *ast.CallExpr:
			if isBuiltinCall(pass, n, "panic") {
				cold[n] = true
			}
		}
		return true
	})
	return cold
}

func blockEndsInPanic(pass *Pass, b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	es, ok := b.List[len(b.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	return ok && isBuiltinCall(pass, call, "panic")
}

func isBuiltinCall(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// inlinable approximates the compiler's inlining budget: a helper with no
// loops, defers, goroutines, selects, or closures and a handful of
// statements is assumed to inline into its hot caller, costing no frame. The
// -escapes mode reconciles this approximation against the compiler.
func inlinable(fd *ast.FuncDecl) bool {
	if fd.Body == nil {
		return false
	}
	stmts := 0
	ok := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.DeferStmt, *ast.GoStmt, *ast.SelectStmt, *ast.FuncLit:
			ok = false
		case ast.Stmt:
			stmts++
		}
		return ok
	})
	return ok && stmts <= 8
}
