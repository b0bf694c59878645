package analysis

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// hotpathDirective marks a hot function. It lives in the doc comment
// directly above the function, staticcheck-directive style:
//
//	//generic:hotpath
//	func (e *rpEncoder) Encode(x []float64, out hdc.Vec) { ... }
const hotpathDirective = "generic:hotpath"

// HotAlloc is the compiler leg of the hot-path allocation contract: a
// function annotated //generic:hotpath (or an exported internal/hdc kernel
// taking a hypervector, hot by default) runs on the per-sample
// encode/predict/update path, and the compiler's escape analysis must find
// no heap allocation inside it. Load compiles every loaded package with
// `go build -gcflags=-m=1`; this analyzer reports each "escapes to heap" or
// "moved to heap" diagnostic that falls inside a hot function's line span.
//
// Every go statement in a hot function is reported too, from the syntax
// tree: spawning a goroutine allocates its closure or, for `go f(x)`, an
// argument wrapper that -m=1 does not print.
//
// Guard blocks that end in panic are dead on the hot path and are skipped,
// so the dimguard-mandated dimension checks (which format a message and
// panic) do not trip the contract. What the compiler cannot see here —
// append growth, and allocations inside a callee it does not inline — is
// bound by the measured alloc-budget gate (internal/analysis/budget).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "report compiler heap escapes (go build -gcflags=-m=1) and go statements in //generic:hotpath functions and default-hot internal/hdc kernels",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, r := range hotRegions(pass) {
		tf := pass.Fset.File(r.pos)
		reported := map[int]bool{}
		for _, g := range r.Go {
			line := pass.Fset.Position(g).Line
			if r.coldLine(line) || reported[line] {
				continue
			}
			reported[line] = true
			pass.Reportf(g, "go statement inside hotpath %s: a goroutine start allocates its closure or argument wrapper; hand the work to workers started outside the hot path", r.Func)
		}
		for _, d := range pass.escapes {
			if d.File != r.File || d.Line < r.StartLine || d.Line > r.EndLine || reported[d.Line] {
				continue
			}
			if r.coldLine(d.Line) || coldMessage(d.Message) {
				continue
			}
			reported[d.Line] = true
			pos := tf.LineStart(d.Line)
			if d.Col > 0 {
				pos += token.Pos(d.Col - 1)
			}
			pass.Reportf(pos, "compiler escape analysis: %s inside hotpath %s; keep the value on the stack or in reused scratch", d.Message, r.Func)
		}
	}
}

// An escapeDiag is one heap diagnostic from `go build -gcflags=-m=1`.
type escapeDiag struct {
	File    string // as printed by the compiler until attachEscapes rewrites it
	Line    int
	Col     int
	Message string
}

// parseEscapes extracts heap diagnostics ("escapes to heap", "moved to
// heap") from compiler -m output, ignoring inlining chatter and the
// "# pkgpath" group headers.
func parseEscapes(out []byte) []escapeDiag {
	var diags []escapeDiag
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		// file.go:line:col: message
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 {
			continue
		}
		ln, err1 := strconv.Atoi(parts[1])
		col, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			continue
		}
		diags = append(diags, escapeDiag{
			File: parts[0], Line: ln, Col: col,
			Message: strings.TrimSpace(parts[3]),
		})
	}
	return diags
}

// attachEscapes hands each diagnostic to the package that owns its file,
// rewriting the compiler-printed path (usually relative to the build
// directory) to the package's FileSet name so regions, directives and
// sorting compare file names exactly. Diagnostics for files outside pkgs
// are dropped.
func attachEscapes(pkgs []*Package, diags []escapeDiag) {
	type owner struct {
		pkg  *Package
		name string
	}
	byBase := map[string][]owner{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			byBase[filepath.Base(name)] = append(byBase[filepath.Base(name)], owner{pkg, name})
		}
	}
	for _, d := range diags {
		for _, o := range byBase[filepath.Base(d.File)] {
			if sameFile(d.File, o.name) {
				d.File = o.name
				o.pkg.escapes = append(o.pkg.escapes, d)
				break
			}
		}
	}
}

// A hotRegion is the line span of one hot function, for matching compiler
// diagnostics against the contract's scope.
type hotRegion struct {
	File      string // as recorded in the package's FileSet
	Func      string
	StartLine int
	EndLine   int
	// Cold holds [start, end] line spans inside the function that are dead
	// on the hot path — panic-guard bodies, panic arguments, and calls to
	// pure guard helpers. Escapes there (error-message formatting, mostly)
	// are the cold price of failing, not a hot-path cost.
	Cold [][2]int
	// Go holds the positions of the function's go statements.
	Go  []token.Pos
	pos token.Pos // the declaration, for resolving diagnostic positions
}

// coldLine reports whether line falls in one of the region's cold spans.
func (r hotRegion) coldLine(line int) bool {
	for _, span := range r.Cold {
		if line >= span[0] && line <= span[1] {
			return true
		}
	}
	return false
}

// hotRegions returns the spans of the package's hot functions: those whose
// doc comment carries //generic:hotpath, and the default-hot internal/hdc
// kernels.
func hotRegions(pass *Pass) []hotRegion {
	decls := map[types.Object]*ast.FuncDecl{}
	var hot []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
			}
			if hotpathAnnotated(fd) || defaultHotKernel(pass, fd) {
				hot = append(hot, fd)
			}
		}
	}
	var regions []hotRegion
	for _, fd := range hot {
		start := pass.Fset.Position(fd.Pos())
		region := hotRegion{
			File: start.Filename, Func: fd.Name.Name,
			StartLine: start.Line, EndLine: pass.Fset.Position(fd.End()).Line,
			pos: fd.Pos(),
		}
		span := func(n ast.Node) {
			region.Cold = append(region.Cold, [2]int{
				pass.Fset.Position(n.Pos()).Line,
				pass.Fset.Position(n.End()).Line,
			})
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				region.Go = append(region.Go, n.Pos())
			case *ast.IfStmt:
				if blockEndsInPanic(pass, n.Body) {
					span(n.Body)
				}
			case *ast.CallExpr:
				if isBuiltinCall(pass, n, "panic") {
					span(n)
					break
				}
				// Calls to pure guard helpers (mustSameDim and kin) are
				// cold too: the compiler inlines them, so their panic-path
				// escapes — the message and its arguments — are attributed
				// to the call line rather than to any panic block.
				if callee := calleeFunc(pass, n); callee != nil {
					if gd, ok := decls[callee]; ok && pureGuard(pass, gd) {
						span(n)
					}
				}
			}
			return true
		})
		regions = append(regions, region)
	}
	return regions
}

// hotpathAnnotated reports whether the function's doc comment carries the
// //generic:hotpath directive (exact line, no leading space after //).
func hotpathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == "//"+hotpathDirective {
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
// name.
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
		t := pass.Info.TypeOf(field.Type)
		if isVectorType(pass, t) || hdcTypeName(pass, t) == "Acc" {
			return true
		}
	}
	return false
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

// pureGuard reports whether fd's body consists solely of if-blocks that end
// in panic — a validation helper with no hot-path work of its own.
func pureGuard(pass *Pass, fd *ast.FuncDecl) bool {
	if len(fd.Body.List) == 0 {
		return false
	}
	for _, stmt := range fd.Body.List {
		ifs, ok := stmt.(*ast.IfStmt)
		if !ok || !blockEndsInPanic(pass, ifs.Body) {
			return false
		}
	}
	return true
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

// coldMessage reports whether a diagnostic describes panic/error-message
// material rather than hot-path data. Guard helpers the compiler inlines
// can attribute their panic-argument escapes to lines outside any
// syntactic cold span; the escaping values are recognizable instead:
// quoted string constants and fmt.Sprintf calls, which hot-path data
// (slices, structs, boxed scalars) never prints as.
func coldMessage(msg string) bool {
	return strings.HasPrefix(msg, `"`) || strings.Contains(msg, "fmt.Sprintf(")
}

// sameFile matches a compiler-printed path (usually relative) against a
// FileSet path (usually absolute): equal after cleaning, or one is a
// path-boundary suffix of the other.
func sameFile(a, b string) bool {
	a, b = filepath.ToSlash(filepath.Clean(a)), filepath.ToSlash(filepath.Clean(b))
	if a == b {
		return true
	}
	return strings.HasSuffix(a, "/"+b) || strings.HasSuffix(b, "/"+a)
}
