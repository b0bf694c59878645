package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway Go module for loader tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadPartialFailure is the regression test for the exit-code contract's
// load half: a package that fails to type-check becomes a LoadError while
// its siblings still load and get analyzed.
func TestLoadPartialFailure(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":     "module example.com/broken\n\ngo 1.22\n",
		"ok/ok.go":   "package ok\n\nfunc Ok() int { return 1 }\n",
		"bad/bad.go": "package bad\n\nvar X int = \"not an int\"\n",
	})
	pkgs, loadErrs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "example.com/broken/ok" {
		t.Fatalf("loaded %d packages (%v), want just example.com/broken/ok", len(pkgs), pkgs)
	}
	if len(loadErrs) != 1 {
		t.Fatalf("got %d load errors, want 1: %v", len(loadErrs), loadErrs)
	}
	le := loadErrs[0]
	if le.ImportPath != "example.com/broken/bad" || !strings.Contains(le.Error(), "example.com/broken/bad") {
		t.Errorf("load error = %v", le)
	}
	if ExitCode(len(pkgs), 0, len(loadErrs)) != 2 {
		t.Error("partial load must exit 2 even with zero findings")
	}
}

func TestExitCode(t *testing.T) {
	cases := []struct {
		pkgs, findings, loadErrs, want int
	}{
		{pkgs: 3, want: 0},
		{pkgs: 3, findings: 2, want: 1},
		{pkgs: 3, loadErrs: 1, want: 2},
		{pkgs: 3, findings: 2, loadErrs: 1, want: 2}, // load failures outrank findings
		{pkgs: 0, want: 2},                           // nothing loaded is a failed run, not a clean one
	}
	for _, tc := range cases {
		if got := ExitCode(tc.pkgs, tc.findings, tc.loadErrs); got != tc.want {
			t.Errorf("ExitCode(%d, %d, %d) = %d, want %d", tc.pkgs, tc.findings, tc.loadErrs, got, tc.want)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty findings encode as %q, want []", got)
	}

	buf.Reset()
	findings := []Finding{{
		Analyzer: "hotalloc",
		Pos:      token.Position{Filename: "internal/hdc/vec.go", Line: 12, Column: 7},
		Message:  "hot path allocates",
	}}
	if err := WriteJSON(&buf, findings); err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(decoded) != 1 {
		t.Fatalf("decoded %d findings, want 1", len(decoded))
	}
	d := decoded[0]
	if d.File != "internal/hdc/vec.go" || d.Line != 12 || d.Col != 7 || d.Analyzer != "hotalloc" || d.Message != "hot path allocates" {
		t.Errorf("decoded finding = %+v", d)
	}
}

// TestLoadCompileFailure is the compile half of the exit-code contract: a
// package that type-checks but does not compile (a body-less function is
// legal to go/types, not to the compiler) becomes a LoadError, while the
// packages that did compile still carry their escape diagnostics.
func TestLoadCompileFailure(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/nocompile\n\ngo 1.22\n",
		"ok/ok.go": `package ok

func Grow(n int) []int { return make([]int, n) }
`,
		"bad/bad.go": "package bad\n\nfunc Missing()\n\nfunc Call() { Missing() }\n",
	})
	pkgs, loadErrs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want both to type-check", len(pkgs))
	}
	if len(loadErrs) != 1 || loadErrs[0].ImportPath != "example.com/nocompile/bad" || !strings.Contains(loadErrs[0].Error(), "missing function body") {
		t.Fatalf("load errors = %v, want one compile error for example.com/nocompile/bad", loadErrs)
	}
	for _, p := range pkgs {
		if p.ImportPath == "example.com/nocompile/ok" && len(p.escapes) != 1 {
			t.Errorf("ok package carries %d escapes, want its one make: %+v", len(p.escapes), p.escapes)
		}
	}
	if ExitCode(len(pkgs), 0, len(loadErrs)) != 2 {
		t.Error("a compile failure must exit 2")
	}
}
