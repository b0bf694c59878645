package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Module     string // owning module path
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info

	// escapes holds the compiler's heap diagnostics for the package's
	// files, attached by compile; generic/hotalloc reads them.
	escapes []escapeDiag
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string // compiled export data in the build cache
	DepOnly    bool   // listed only as a dependency of a matched package
	Module     *struct{ Path string }
}

// A LoadError records one listed package that could not be parsed,
// type-checked or compiled. Loading continues past it so the rest of the
// tree is still analyzed, but the caller must surface the failure: findings
// from a partial load are a lower bound, not a clean bill.
type LoadError struct {
	ImportPath string
	Err        error
}

func (e LoadError) Error() string {
	return fmt.Sprintf("%s: %v", e.ImportPath, e.Err)
}

// Load resolves patterns (e.g. "./...") to packages via `go list -json`,
// parses their non-test files, type-checks them against the compiler's
// export data for every import, and compiles them with escape analysis on
// (see compile). dir is the working directory for the go command and must
// lie inside the module under analysis. Test files are skipped by
// construction: the contracts bind library code, and tests routinely violate
// them on purpose to prove the guarantees hold.
//
// A package that fails to parse, type-check or compile does not abort the
// load: it is reported in the returned LoadError slice and the remaining
// packages are still analyzed. Packages that fail to type-check are not
// compiled. The error return is reserved for failures of the load itself
// (go list, output decoding).
func Load(dir string, patterns []string) ([]*Package, []LoadError, error) {
	// -export builds every listed package and its dependencies (the build
	// cache keeps this cheap) and names each export data file. -e lists a
	// package that does not compile, without export data, instead of
	// failing the whole listing; its type-check or compile below reports it.
	args := append([]string{"list", "-e", "-json", "-export", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	var matched []listPackage
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp listPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly && len(lp.GoFiles) > 0 {
			matched = append(matched, lp)
		}
	}

	fset := token.NewFileSet()
	// The gc importer reads each import's types from the export data the go
	// command just listed, so no dependency (the standard library included)
	// is type-checked from source. It caches packages internally; sharing
	// one instance across the whole load reads each export file once.
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var pkgs []*Package
	var loadErrs []LoadError
	for _, lp := range matched {
		p, err := check(fset, imp, lp)
		if err != nil {
			loadErrs = append(loadErrs, LoadError{ImportPath: lp.ImportPath, Err: err})
			continue
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, append(loadErrs, compile(dir, pkgs)...), nil
}

// compile builds pkgs, named by directory, with `go build -gcflags=-m=1` in
// dir and attaches each package's heap diagnostics. The build cache replays
// compiler output, so repeat runs stay cheap and still see every
// diagnostic. Each package that does not compile becomes a LoadError: its
// escape analysis never ran, so its hot regions prove nothing.
func compile(dir string, pkgs []*Package) []LoadError {
	if len(pkgs) == 0 {
		return nil
	}
	dirs := make([]string, len(pkgs))
	for i, p := range pkgs {
		dirs[i] = p.Dir
	}
	out, err := goBuild(dir, append([]string{"-gcflags=-m=1"}, dirs...))
	attachEscapes(pkgs, parseEscapes(out))
	if err == nil {
		return nil
	}
	// The -m chatter buries the compile errors; a plain build of the same
	// packages prints only them, one "# importpath" block per failure.
	plain, _ := goBuild(dir, dirs)
	var errs []LoadError
	for _, block := range strings.Split("\n"+string(plain), "\n# ")[1:] {
		path, msg, _ := strings.Cut(block, "\n")
		errs = append(errs, LoadError{ImportPath: path, Err: fmt.Errorf("analysis: compiling: %s", strings.TrimSpace(msg))})
	}
	if len(errs) == 0 {
		errs = append(errs, LoadError{ImportPath: "go build -gcflags=-m=1", Err: err})
	}
	return errs
}

// goBuild runs `go build args...` in dir and returns its combined output.
func goBuild(dir string, args []string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"build"}, args...)...)
	cmd.Dir = dir
	return cmd.CombinedOutput()
}

// ExitCode maps a run's outcome to generic-lint's exit-status contract:
// 2 when loading failed (including a load that produced no packages at
// all), 1 when findings were reported, 0 when the tree is clean. Load
// failures outrank findings: a partial analysis must never read as a
// merely-dirty tree.
func ExitCode(pkgs, findings, loadErrs int) int {
	switch {
	case loadErrs > 0 || pkgs == 0:
		return 2
	case findings > 0:
		return 1
	}
	return 0
}

// check parses and type-checks one listed package.
func check(fset *token.FileSet, imp types.Importer, lp listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", lp.ImportPath, err)
	}
	mod := ""
	if lp.Module != nil {
		mod = lp.Module.Path
	}
	return &Package{
		Module: mod, ImportPath: lp.ImportPath, Dir: lp.Dir,
		Fset: fset, Files: files, Pkg: pkg, Info: info,
	}, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}
