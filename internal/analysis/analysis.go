// Package analysis is the custom static-analysis engine behind
// cmd/generic-lint. It mechanically enforces the determinism and concurrency
// contracts this repository documents in DESIGN.md ("Determinism contract"):
// any worker count must produce bit-identical models, predictions, and
// assignments, and all randomness must be explicit and replayable.
//
// The engine is built purely on the standard library (go/ast, go/parser,
// go/token, go/types; package metadata via `go list -json`), so go.mod stays
// dependency-free. One analyzer exists per contract:
//
//   - detrand:    no math/rand, no time.Now, no map-range iteration in
//     model-state-affecting code under internal/ — randomness flows
//     through internal/rng, iteration order is fixed.
//   - encshare:   an encoder captured by a `go` closure or a parallel.For
//     body is an error — encoders carry window scratch state; fan out
//     through encoding.Pool or per-worker clones.
//   - mergeorder: per-worker partial results are combined by worker index,
//     never by channel-arrival order.
//   - dimguard:   exported internal/hdc kernels taking two hypervectors
//     begin with a dimensionality check that panics with the
//     "hdc:" prefix.
//   - hotalloc:   //generic:hotpath functions (and default-hot internal/hdc
//     kernels) do not allocate: no escaping literals, bare make/append,
//     defer, closures, interface boxing, or unvetted helper calls. See
//     DESIGN.md "Performance contract".
//   - lockshape:  in the lock-heavy serving packages, no mixed
//     atomic/direct field access, mutex value copies, RLock→Lock
//     upgrades, or sync.Pool use-after-Put.
//
// A third performance check is not an analyzer: the alloc-budget gate
// (internal/analysis/budget) measures real allocs/op with
// testing.AllocsPerRun against the committed ALLOC_BUDGET.json.
//
// Findings can be suppressed with a staticcheck-style directive on the line
// of, or the line immediately above, the offending node:
//
//	//lint:ignore generic/<name> <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer checks one contract over a single type-checked package.
type Analyzer struct {
	// Name is the short rule name; findings print as "generic/<Name>".
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Run inspects the package and reports findings through pass.Reportf.
	Run func(pass *Pass)
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{DetRand, EncShare, MergeOrder, DimGuard, HotAlloc, LockShape}
}

// ByName resolves a comma-separated analyzer list ("detrand,dimguard").
// An empty spec selects the full suite.
func ByName(spec string) ([]*Analyzer, error) {
	if spec == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// A Finding is one reported contract violation.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: generic/%s: %s", f.Pos, f.Analyzer, f.Message)
}

// A Pass hands one type-checked package to one analyzer.
type Pass struct {
	// Module is the module path ("github.com/edge-hdc/generic"); analyzers
	// use it to scope rules to internal/ packages.
	Module string
	// Path is the package import path under analysis.
	Path string
	Fset *token.FileSet
	// Files holds the package's non-test syntax trees.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	report   func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InternalPkg reports whether the pass's package lives under the module's
// internal/ tree, excluding skip (bare names like "rng").
func (p *Pass) InternalPkg(skip ...string) bool {
	prefix := p.Module + "/internal/"
	if !strings.HasPrefix(p.Path, prefix) {
		return false
	}
	rest := strings.TrimPrefix(p.Path, prefix)
	for _, s := range skip {
		if rest == s || strings.HasPrefix(rest, s+"/") {
			return false
		}
	}
	return true
}

// Run applies each analyzer to each package, filters suppressed findings,
// and returns the rest sorted by file position. Malformed suppression
// directives are reported under the pseudo-analyzer "directive".
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		sup, bad := directives(pkg.Fset, pkg.Files)
		findings = append(findings, bad...)
		collect := func(f Finding) {
			if sup.suppressed(f) {
				return
			}
			findings = append(findings, f)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Module: pkg.Module, Path: pkg.ImportPath,
				Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Pkg, Info: pkg.Info,
				analyzer: a, report: collect,
			}
			a.Run(pass)
		}
	}
	SortFindings(findings)
	return findings
}

// SortFindings orders findings by file position then analyzer name — the
// engine's canonical output order. Exported so callers merging extra
// findings (the -escapes mode) can restore it.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// FilterSuppressed drops findings covered by lint:ignore directives in pkgs.
// Run applies this internally; findings produced outside Run (escape
// reconciliation) go through here so directives work uniformly.
func FilterSuppressed(pkgs []*Package, findings []Finding) []Finding {
	sup := suppressions{}
	for _, pkg := range pkgs {
		s, _ := directives(pkg.Fset, pkg.Files)
		for k, v := range s {
			sup[k] = v
		}
	}
	out := findings[:0]
	for _, f := range findings {
		if !sup.suppressed(f) {
			out = append(out, f)
		}
	}
	return out
}

// ignorePrefix is the directive form this suite honors. The "lint:" vocabulary
// matches staticcheck so editors already highlight it.
const ignorePrefix = "lint:ignore "

// suppressions maps file:line to the set of analyzer names ignored there.
type suppressions map[string]map[string]bool

func (s suppressions) suppressed(f Finding) bool {
	// A directive acts on its own line and on the line directly below it,
	// covering both end-of-line and preceding-line comment placement.
	for _, line := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		names := s[fmt.Sprintf("%s:%d", f.Pos.Filename, line)]
		if names[f.Analyzer] {
			return true
		}
	}
	return false
}

// directives scans the package comments for lint:ignore directives, returning
// the suppression table and findings for malformed directives.
func directives(fset *token.FileSet, files []*ast.File) (suppressions, []Finding) {
	sup := suppressions{}
	var bad []Finding
	malformed := func(pos token.Pos, msg string) {
		bad = append(bad, Finding{Analyzer: "directive", Pos: fset.Position(pos), Message: msg})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, " ")
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, ignorePrefix)
				names, reason, _ := strings.Cut(rest, " ")
				if strings.TrimSpace(reason) == "" {
					malformed(c.Pos(), "lint:ignore directive needs a reason: //lint:ignore generic/<analyzer> <why this is safe>")
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, name := range strings.Split(names, ",") {
					short, ok := strings.CutPrefix(name, "generic/")
					if !ok || short == "" {
						malformed(c.Pos(), fmt.Sprintf("lint:ignore directive names %q; this suite's checks are written generic/<analyzer>", name))
						continue
					}
					if sup[key] == nil {
						sup[key] = map[string]bool{}
					}
					sup[key][short] = true
				}
			}
		}
	}
	return sup, bad
}
