package perf

import (
	"sync"
	"testing"
)

func TestDisabledTracerIsSilent(t *testing.T) {
	tr := New(16, 1)
	if sp := tr.Begin("x"); sp != nil {
		t.Fatalf("Begin on a disabled tracer = %v, want nil", sp)
	}
	// All nil-span methods are no-ops.
	var sp *Span
	sp.End()
	if child := sp.Child("y"); child != nil {
		t.Fatalf("Child of nil span = %v, want nil", child)
	}
	if recs := tr.Snapshot(); len(recs) != 0 {
		t.Fatalf("disabled tracer recorded %d spans", len(recs))
	}
}

func TestSpanRecordingAndNesting(t *testing.T) {
	tr := New(64, 7)
	tr.Enable()
	root := tr.Begin("root")
	child := root.Child("child")
	grand := child.Child("grand")
	grand.End()
	child.End()
	root.End()

	recs := tr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Snapshot orders by start time: root, child, grand.
	if recs[0].Name != "root" || recs[1].Name != "child" || recs[2].Name != "grand" {
		t.Fatalf("order = %s,%s,%s", recs[0].Name, recs[1].Name, recs[2].Name)
	}
	if recs[0].Parent != 0 {
		t.Errorf("root has parent %d", recs[0].Parent)
	}
	if recs[1].Parent != recs[0].ID {
		t.Errorf("child.Parent = %d, want root ID %d", recs[1].Parent, recs[0].ID)
	}
	if recs[2].Parent != recs[1].ID {
		t.Errorf("grand.Parent = %d, want child ID %d", recs[2].Parent, recs[1].ID)
	}
	for _, r := range recs {
		if r.ID == 0 {
			t.Errorf("span %q has zero ID", r.Name)
		}
		if r.Dur < 0 {
			t.Errorf("span %q has negative duration %d", r.Name, r.Dur)
		}
	}
	// Children are contained in their parents on the timeline.
	if recs[1].Start < recs[0].Start || recs[1].Start+recs[1].Dur > recs[0].Start+recs[0].Dur {
		t.Errorf("child span [%d,+%d] escapes root [%d,+%d]",
			recs[1].Start, recs[1].Dur, recs[0].Start, recs[0].Dur)
	}
}

// TestDeterministicIDs: identical span sequences after Reset reproduce
// identical IDs — traces are replayable like everything else in the repo.
func TestDeterministicIDs(t *testing.T) {
	tr := New(16, 42)
	tr.Enable()
	run := func() []uint64 {
		tr.Reset()
		a := tr.Begin("a")
		b := a.Child("b")
		b.End()
		a.End()
		recs := tr.Snapshot()
		ids := make([]uint64, len(recs))
		for i, r := range recs {
			ids[i] = r.ID
		}
		return ids
	}
	first, second := run(), run()
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("record counts: %d, %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("ID %d differs across identical runs: %x vs %x", i, first[i], second[i])
		}
	}
	// A different seed yields a different stream.
	other := New(16, 43)
	other.Enable()
	sp := other.Begin("a")
	sp.End()
	if got := other.Snapshot()[0].ID; got == first[0] {
		t.Errorf("seed 43 reproduced seed 42's first ID %x", got)
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	tr := New(4, 1)
	tr.Enable()
	for i := 0; i < 10; i++ {
		tr.Begin("s").End()
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("ring of 4 holds %d records", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Errorf("snapshot not start-ordered at %d", i)
		}
	}
}

// TestConcurrentSpans hammers Begin/End/Snapshot from many goroutines; run
// with -race. Also exercises Enable/Disable flips mid-flight.
func TestConcurrentSpans(t *testing.T) {
	tr := New(128, 9)
	tr.Enable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := tr.Begin("work")
				sp.Child("inner").End()
				sp.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.Snapshot()
			tr.Disable()
			tr.Enable()
		}
	}()
	wg.Wait()
	<-done
	if recs := tr.Snapshot(); len(recs) == 0 {
		t.Fatal("no spans recorded under concurrency")
	}
}

// BenchmarkBeginDisabled documents the disabled-path cost: one atomic load.
func BenchmarkBeginDisabled(b *testing.B) {
	tr := New(16, 1)
	for i := 0; i < b.N; i++ {
		tr.Begin("x").End()
	}
}

// BenchmarkSpanEnabled documents the enabled-path cost per span.
func BenchmarkSpanEnabled(b *testing.B) {
	tr := New(1<<12, 1)
	tr.Enable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Begin("x").End()
	}
}
