package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLint compiles the generic-lint binary once per test run.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "generic-lint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building generic-lint: %v\n%s", err, out)
	}
	return bin
}

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

func runLint(t *testing.T, bin, dir string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running generic-lint: %v", err)
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

// TestExitCodeContract is the end-to-end regression test for the CLI's exit
// statuses: 0 clean, 1 findings, 2 load failure — and load failures outrank
// findings, so a partial analysis can never pass or read as merely dirty.
func TestExitCodeContract(t *testing.T) {
	bin := buildLint(t)

	// Three packages: one clean, one with a default-hot hdc kernel that
	// allocates (a finding), one that does not type-check (a load error).
	dir := writeModule(t, map[string]string{
		"go.mod":   "module example.com/x\n\ngo 1.22\n",
		"ok/ok.go": "package ok\n\nfunc Ok() int { return 1 }\n",
		"internal/hdc/vec.go": `package hdc

type Vec []int32

func Scaled(v Vec, k int32) Vec {
	out := make(Vec, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}
`,
		"bad/bad.go": "package bad\n\nvar X int = \"not an int\"\n",
	})

	t.Run("clean tree exits 0", func(t *testing.T) {
		code, stdout, stderr := runLint(t, bin, dir, "./ok")
		if code != 0 || stdout != "" {
			t.Fatalf("exit %d, stdout %q, stderr %q; want silent success", code, stdout, stderr)
		}
	})

	t.Run("findings exit 1", func(t *testing.T) {
		code, stdout, _ := runLint(t, bin, dir, "./internal/hdc")
		if code != 1 {
			t.Fatalf("exit %d, want 1\n%s", code, stdout)
		}
		if !strings.Contains(stdout, "generic/hotalloc") {
			t.Fatalf("stdout missing hotalloc finding:\n%s", stdout)
		}
	})

	t.Run("load failure exits 2 and outranks findings", func(t *testing.T) {
		code, stdout, stderr := runLint(t, bin, dir, "./...")
		if code != 2 {
			t.Fatalf("exit %d, want 2\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
		}
		// The packages that did load are still analyzed and reported.
		if !strings.Contains(stdout, "generic/hotalloc") {
			t.Fatalf("partial run dropped findings from loadable packages:\n%s", stdout)
		}
		if !strings.Contains(stderr, "example.com/x/bad") || !strings.Contains(stderr, "partial analysis") {
			t.Fatalf("stderr does not surface the failed package:\n%s", stderr)
		}
	})

	t.Run("json findings are machine-readable", func(t *testing.T) {
		code, stdout, _ := runLint(t, bin, dir, "-json", "./internal/hdc")
		if code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
		var findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
			t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout)
		}
		if len(findings) == 0 || findings[0].Analyzer != "hotalloc" || findings[0].Line == 0 {
			t.Fatalf("unexpected JSON findings: %+v", findings)
		}
		if !strings.HasSuffix(findings[0].File, "vec.go") {
			t.Fatalf("finding file = %q", findings[0].File)
		}
	})

	t.Run("json empty array on clean tree", func(t *testing.T) {
		code, stdout, _ := runLint(t, bin, dir, "-json", "./ok")
		if code != 0 || strings.TrimSpace(stdout) != "[]" {
			t.Fatalf("exit %d, stdout %q; want 0 and []", code, stdout)
		}
	})
}

// TestCompileFailureExits2 extends the exit-code contract to the compiler
// leg: a package that type-checks but does not compile fails the run with
// exit 2, while the escapes found in the packages that did compile are
// still reported.
func TestCompileFailureExits2(t *testing.T) {
	bin := buildLint(t)
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/y\n\ngo 1.22\n",
		"internal/hdc/vec.go": `package hdc

type Vec []int32

func Scaled(v Vec, k int32) Vec {
	out := make(Vec, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}
`,
		"nobody/nobody.go": "package nobody\n\nfunc Missing()\n",
	})
	code, stdout, stderr := runLint(t, bin, dir, "./...")
	if code != 2 {
		t.Fatalf("exit %d, want 2\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "generic/hotalloc") || !strings.Contains(stdout, "inside hotpath Scaled") {
		t.Fatalf("compile failure dropped the other package's escape finding:\n%s", stdout)
	}
	if !strings.Contains(stderr, "example.com/y/nobody") || !strings.Contains(stderr, "missing function body") {
		t.Fatalf("stderr does not surface the package that failed to compile:\n%s", stderr)
	}
}

// TestListAndRetiredFlag pins the CLI surface: six analyzers, and no
// -escapes flag, since the compiler leg runs on every invocation.
func TestListAndRetiredFlag(t *testing.T) {
	bin := buildLint(t)
	dir := writeModule(t, map[string]string{"go.mod": "module example.com/z\n\ngo 1.22\n"})
	code, stdout, _ := runLint(t, bin, dir, "-list")
	if lines := strings.Split(strings.TrimSpace(stdout), "\n"); code != 0 || len(lines) != 6 {
		t.Fatalf("-list exit %d, %d analyzers:\n%s", code, len(lines), stdout)
	}
	if code, _, stderr := runLint(t, bin, dir, "-escapes", "./..."); code != 2 || !strings.Contains(stderr, "-escapes") {
		t.Fatalf("-escapes exit %d, stderr %q; want the flag rejected", code, stderr)
	}
}
