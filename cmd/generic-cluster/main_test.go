package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestErrorExitWritesProfiles: a run that fails after the profiles started
// still writes them, because run returns to its deferred Stop instead of
// exiting the process.
func TestErrorExitWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, trace := filepath.Join(dir, "p.prof"), filepath.Join(dir, "t.json")
	err := run([]string{"-dataset", "Iris", "-k", "1000", "-cpuprofile", cpu, "-trace", trace})
	if err == nil || !strings.Contains(err.Error(), "k=1000 out of range") {
		t.Fatalf("run with -k 1000 = %v, want the k range error", err)
	}
	if st, err := os.Stat(cpu); err != nil || st.Size() == 0 {
		t.Errorf("CPU profile after the error exit: stat %v, want a non-empty file", err)
	}
	data, err := os.ReadFile(trace)
	if err != nil || !bytes.Contains(data, []byte(`"traceEvents"`)) {
		t.Errorf("trace after the error exit: %v, %q; want a trace-event document", err, data)
	}
}
