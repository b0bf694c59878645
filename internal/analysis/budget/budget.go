// Package budget is the measured leg of the performance contract
// (DESIGN.md "Performance contract"): where generic/hotalloc reports the
// compiler's heap escapes inside hot functions, this package measures what
// the hot paths actually allocate, with testing.AllocsPerRun, and gates the
// result against the committed ALLOC_BUDGET.json at the repository root. It
// binds what escape analysis cannot see: append growth, which -m=1 does not
// print, and allocations inside a callee, which it reports at the callee.
//
// The budget file is regenerated the same way BENCH_GENERIC.json is:
//
//	go test ./internal/analysis/budget -run TestAllocBudget -update
//
// Raising a budget is a reviewed change to a committed file, never a silent
// drift. The gate fails three ways: an op measuring above its budget, an op
// with no budget entry (new hot path, not yet ratified), and a budget entry
// with no op (stale entry for a deleted hot path).
package budget

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// SchemaVersion identifies the ALLOC_BUDGET.json layout.
const SchemaVersion = 1

// An Entry budgets one hot operation.
type Entry struct {
	// Name is the op's registry name (see Ops), e.g. "encode/rp".
	Name string `json:"name"`
	// MaxAllocsPerOp is the ceiling on testing.AllocsPerRun's average.
	MaxAllocsPerOp float64 `json:"max_allocs_per_op"`
}

// A File is the parsed ALLOC_BUDGET.json.
type File struct {
	Schema  int     `json:"schema"`
	Entries []Entry `json:"entries"`
}

// ReadFile loads and validates a budget file.
func ReadFile(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("budget: parsing %s: %v", path, err)
	}
	if f.Schema != SchemaVersion {
		return File{}, fmt.Errorf("budget: %s has schema %d, this tool speaks %d — regenerate with -update", path, f.Schema, SchemaVersion)
	}
	return f, nil
}

// Write stores the budget with entries sorted by name, so regeneration
// diffs are stable.
func (f File) Write(path string) error {
	f.Schema = SchemaVersion
	sort.Slice(f.Entries, func(i, j int) bool { return f.Entries[i].Name < f.Entries[j].Name })
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Index maps entry names to their budgets.
func (f File) Index() map[string]float64 {
	idx := make(map[string]float64, len(f.Entries))
	for _, e := range f.Entries {
		idx[e.Name] = e.MaxAllocsPerOp
	}
	return idx
}

// A Violation is one way the measured tree disagrees with the budget.
type Violation struct {
	// Kind is "over-budget", "missing-entry", or "stale-entry".
	Kind string
	Name string
	// Detail is a human-readable explanation with both numbers.
	Detail string
}

func (v Violation) String() string { return fmt.Sprintf("%s %s: %s", v.Kind, v.Name, v.Detail) }

// Check compares measured allocs/op against the budget and returns every
// disagreement, sorted by op name. A clean run returns nil.
func Check(f File, measured map[string]float64) []Violation {
	budgets := f.Index()
	var out []Violation
	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got := measured[name]
		max, ok := budgets[name]
		switch {
		case !ok:
			out = append(out, Violation{
				Kind: "missing-entry", Name: name,
				Detail: fmt.Sprintf("measured %.1f allocs/op but ALLOC_BUDGET.json has no entry; ratify it with -update", got),
			})
		case got > max:
			out = append(out, Violation{
				Kind: "over-budget", Name: name,
				Detail: fmt.Sprintf("measured %.1f allocs/op, budget %.1f; fix the regression or raise the budget with -update", got, max),
			})
		}
	}
	for _, e := range f.Entries {
		if _, ok := measured[e.Name]; !ok {
			out = append(out, Violation{
				Kind: "stale-entry", Name: e.Name,
				Detail: "budgeted but no registered op measures it; drop it with -update",
			})
		}
	}
	return out
}
