package budget

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ALLOC_BUDGET.json with the measured allocs/op")

const budgetPath = "../../../ALLOC_BUDGET.json"

// measure runs every registered op under testing.AllocsPerRun. Under -race
// it leaves the pooled ops out and returns their names in skipped.
func measure(t *testing.T) (measured map[string]float64, skipped map[string]bool) {
	t.Helper()
	measured, skipped = map[string]float64{}, map[string]bool{}
	for _, op := range Ops() {
		if _, dup := measured[op.Name]; dup || skipped[op.Name] {
			t.Fatalf("duplicate op name %q in registry", op.Name)
		}
		if op.pooled && raceEnabled {
			skipped[op.Name] = true
			continue
		}
		measured[op.Name] = testing.AllocsPerRun(100, op.Run)
	}
	return measured, skipped
}

// TestAllocBudget is the alloc-budget gate: every registered hot op must
// measure at or under its committed budget. Run with -update to ratify
// changed numbers into ALLOC_BUDGET.json (a reviewed diff, like
// BENCH_GENERIC.json).
func TestAllocBudget(t *testing.T) {
	measured, skipped := measure(t)

	if *update {
		if len(skipped) > 0 {
			t.Fatal("-update under -race would drop the pooled ops' budgets; run it without -race")
		}
		f := File{Schema: SchemaVersion}
		for name, got := range measured {
			f.Entries = append(f.Entries, Entry{Name: name, MaxAllocsPerOp: got})
		}
		if err := f.Write(budgetPath); err != nil {
			t.Fatal(err)
		}
		abs, _ := filepath.Abs(budgetPath)
		t.Logf("wrote %d budgets to %s", len(f.Entries), abs)
		return
	}

	f, err := ReadFile(budgetPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/analysis/budget -run TestAllocBudget -update)", err)
	}
	for _, v := range Check(f, measured) {
		if v.Kind == "stale-entry" && skipped[v.Name] {
			continue // a pooled op, measured without -race only
		}
		t.Error(v)
	}
}

// TestGateCatchesInjectedAlloc proves the gate actually fires: an op that
// allocates once per call against a zero budget must come back over-budget.
// The last two inputs allocate where the compiler leg (generic/hotalloc)
// sees nothing: -m=1 prints no diagnostic for append growth, and it reports
// a noinline callee's allocation inside the callee, outside any hot region
// of its caller.
func TestGateCatchesInjectedAlloc(t *testing.T) {
	var sink []byte
	var grown []float64
	for _, leaky := range []Op{
		{Name: "test/leaky", Run: func() { sink = make([]byte, 1024) }},
		{Name: "test/append_growth", Run: func() {
			var s []float64
			grown = append(s, 1)
		}},
		{Name: "test/callee_alloc", Run: func() { sink = freshSlice() }},
	} {
		got := testing.AllocsPerRun(100, leaky.Run)
		if got < 1 {
			t.Fatalf("%s measured %.1f allocs/op; harness cannot see allocations", leaky.Name, got)
		}
		f := File{Schema: SchemaVersion, Entries: []Entry{{Name: leaky.Name, MaxAllocsPerOp: 0}}}
		vs := Check(f, map[string]float64{leaky.Name: got})
		if len(vs) != 1 || vs[0].Kind != "over-budget" {
			t.Fatalf("gate did not flag %s: %v", leaky.Name, vs)
		}
		if !strings.Contains(vs[0].Detail, "budget 0.0") {
			t.Errorf("%s violation detail = %q", leaky.Name, vs[0].Detail)
		}
	}
	_, _ = sink, grown
}

// freshSlice returns a new slice on every call, out of line.
//
//go:noinline
func freshSlice() []byte { return make([]byte, 64) }

// TestCheckMissingAndStale covers the other two failure modes: a new hot op
// with no ratified budget, and a budget entry whose op was deleted.
func TestCheckMissingAndStale(t *testing.T) {
	f := File{Schema: SchemaVersion, Entries: []Entry{
		{Name: "old/gone", MaxAllocsPerOp: 2},
		{Name: "still/here", MaxAllocsPerOp: 1},
	}}
	vs := Check(f, map[string]float64{"still/here": 1, "new/unratified": 0})
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vs), vs)
	}
	kinds := map[string]string{}
	for _, v := range vs {
		kinds[v.Name] = v.Kind
	}
	if kinds["new/unratified"] != "missing-entry" || kinds["old/gone"] != "stale-entry" {
		t.Errorf("violation kinds = %v", kinds)
	}
}

// TestBudgetFileRoundTrip pins the on-disk schema.
func TestBudgetFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ALLOC_BUDGET.json")
	f := File{Entries: []Entry{
		{Name: "b/second", MaxAllocsPerOp: 1},
		{Name: "a/first", MaxAllocsPerOp: 0},
	}}
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || len(got.Entries) != 2 {
		t.Fatalf("round-trip = %+v", got)
	}
	if got.Entries[0].Name != "a/first" || got.Entries[1].Name != "b/second" {
		t.Errorf("entries not sorted on write: %+v", got.Entries)
	}
}
