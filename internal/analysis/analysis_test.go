package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// loadFixture parses and type-checks one testdata/src package, presenting it
// under the given import path (the analyzers scope rules by path).
func loadFixture(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	full := filepath.Join("testdata", "src", dir)
	abs, err := filepath.Abs(full)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(full, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	return &Package{
		Module: "example.com/m", ImportPath: importPath, Dir: abs,
		Fset: fset, Files: files, Pkg: pkg, Info: info,
	}
}

// wantFindings collects the fixture's expectations: every "// want
// generic/<name> [generic/<name> ...]" comment expects those analyzers to
// fire on its line.
func wantFindings(pkg *Package) []string {
	var want []string
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Fields(strings.TrimPrefix(text, "want ")) {
					short := strings.TrimPrefix(name, "generic/")
					want = append(want, fmt.Sprintf("%s:%d %s", filepath.Base(pos.Filename), pos.Line, short))
				}
			}
		}
	}
	return want
}

func gotFindings(findings []Finding) []string {
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer))
	}
	return got
}

// TestAnalyzersOnFixtures is the golden-fixture table: each analyzer must
// fire exactly on its seeded violations and stay silent on the sanctioned
// patterns, with suppression directives honored. The hotalloc rows compile
// their fixture first, so their wants are the compiler's own escapes.
func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		name      string
		dir       string
		path      string
		analyzers []*Analyzer
		// extraWant lists expectations that cannot be expressed as want
		// comments (findings on comment-only lines, e.g. malformed
		// directives), as "file.go:line analyzer".
		extraWant []string
	}{
		{name: "detrand", dir: "detrand", path: "example.com/m/internal/state", analyzers: []*Analyzer{DetRand}},
		{name: "detrand out of scope", dir: "detrand", path: "example.com/m/simstate", analyzers: []*Analyzer{DetRand}},
		{name: "detrand skips rng", dir: "detrand", path: "example.com/m/internal/rng", analyzers: []*Analyzer{DetRand}},
		{name: "detrand skips perf", dir: "perfclock", path: "example.com/m/internal/perf", analyzers: []*Analyzer{DetRand}},
		{name: "detrand perfclock in model-state path", dir: "perfclock", path: "example.com/m/internal/state", analyzers: []*Analyzer{DetRand}},
		{name: "detrand injector", dir: "injector", path: "example.com/m/internal/faults", analyzers: []*Analyzer{DetRand}},
		{name: "detrand injector out of scope", dir: "injector", path: "example.com/m/faults", analyzers: []*Analyzer{DetRand}},
		{name: "encshare", dir: "encshare", path: "example.com/m/internal/encoding", analyzers: []*Analyzer{EncShare}},
		{name: "mergeorder", dir: "mergeorder", path: "example.com/m/internal/cluster", analyzers: []*Analyzer{MergeOrder}},
		{name: "dimguard", dir: "dimguard", path: "example.com/m/internal/hdc", analyzers: []*Analyzer{DimGuard}},
		{name: "dimguard out of scope", dir: "dimguard", path: "example.com/m/internal/tinyhd", analyzers: []*Analyzer{DimGuard}},
		{name: "directives", dir: "directive", path: "example.com/m/internal/directive", analyzers: nil,
			extraWant: []string{"directive.go:7 directive", "directive.go:10 directive"}},
		{name: "hotalloc annotated", dir: "hotalloc", path: "example.com/m/internal/encoding", analyzers: []*Analyzer{HotAlloc}},
		{name: "hotalloc hdc default-hot", dir: "hotallochdc", path: "example.com/m/internal/hdc", analyzers: []*Analyzer{HotAlloc}},
		{name: "hotalloc hdc default-hot out of scope", dir: "hotallochdc", path: "example.com/m/hdcmirror", analyzers: []*Analyzer{HotAlloc}},
		{name: "lockshape", dir: "lockshape", path: "example.com/m/cmd/generic-serve", analyzers: []*Analyzer{LockShape}},
		{name: "lockshape out of scope", dir: "lockshape", path: "example.com/m/serveapp", analyzers: []*Analyzer{LockShape}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := loadFixture(t, tc.dir, tc.path)
			if slices.Contains(tc.analyzers, HotAlloc) {
				if errs := compile(".", []*Package{pkg}); errs != nil {
					t.Fatalf("compiling fixture %s: %v", tc.dir, errs)
				}
				if len(pkg.escapes) == 0 {
					t.Fatalf("compiling fixture %s attached no escapes", tc.dir)
				}
			}
			want := tc.extraWant
			// Out-of-scope runs reuse a fixture under a path the analyzer
			// must ignore: every want comment is expected to stay silent.
			if !strings.Contains(tc.name, "out of scope") && !strings.Contains(tc.name, "skips") {
				want = append(want, wantFindings(pkg)...)
			}
			got := gotFindings(Run([]*Package{pkg}, tc.analyzers))
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
			}
		})
	}
}

// TestSuppressionRequiresExactName ensures an ignore directive for one
// analyzer does not silence another on the same line.
func TestSuppressionRequiresExactName(t *testing.T) {
	pkg := loadFixture(t, "detrand", "example.com/m/internal/state")
	got := gotFindings(Run([]*Package{pkg}, []*Analyzer{MergeOrder}))
	if len(got) != 0 {
		t.Errorf("mergeorder found %v in the detrand fixture", got)
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %v, %v", all, err)
	}
	two, err := ByName("dimguard, detrand")
	if err != nil || len(two) != 2 || two[0] != DimGuard || two[1] != DetRand {
		t.Fatalf("ByName subset = %v, %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

func TestInternalPkgScoping(t *testing.T) {
	cases := []struct {
		path string
		skip []string
		want bool
	}{
		{"example.com/m/internal/hdc", nil, true},
		{"example.com/m/internal/rng", []string{"rng"}, false},
		{"example.com/m/internal/rng/sub", []string{"rng"}, false},
		{"example.com/m/pkg", nil, false},
		{"example.com/m", nil, false},
	}
	for _, tc := range cases {
		p := &Pass{Module: "example.com/m", Path: tc.path}
		if got := p.InternalPkg(tc.skip...); got != tc.want {
			t.Errorf("InternalPkg(%q, skip %v) = %v, want %v", tc.path, tc.skip, got, tc.want)
		}
	}
}

// TestLoadRepo exercises the go list -json loader against the real module.
func TestLoadRepo(t *testing.T) {
	pkgs, loadErrs, err := Load("../..", []string{"./internal/hdc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(loadErrs) != 0 {
		t.Fatalf("load errors on the real module: %v", loadErrs)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Module != "github.com/edge-hdc/generic" {
		t.Errorf("module = %q", p.Module)
	}
	if !strings.HasSuffix(p.ImportPath, "internal/hdc") || p.Pkg.Name() != "hdc" {
		t.Errorf("loaded %q (%s)", p.ImportPath, p.Pkg.Name())
	}
	if p.Pkg.Scope().Lookup("Vec") == nil {
		t.Error("type info missing hdc.Vec")
	}
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			t.Errorf("loader picked up test file %s", p.Fset.Position(f.Pos()).Filename)
		}
	}
}
