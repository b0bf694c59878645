package perf_test

// End-to-end export test: run the real pipeline (fit + predict), export one
// Chrome trace-event JSON, and validate it against the trace-event schema.

import (
	"bytes"
	"encoding/json"
	"testing"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/perf"
)

// validateTraceEvents checks the Chrome trace-event schema: a top-level
// traceEvents array whose entries carry name/ph/pid/tid, a numeric ts, and —
// for complete ("X") events — a non-negative dur.
func validateTraceEvents(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if doc.TraceEvents == nil {
		t.Fatal("trace output lacks a traceEvents array")
	}
	for i, ev := range doc.TraceEvents {
		name, ok := ev["name"].(string)
		if !ok || name == "" {
			t.Fatalf("event %d: missing or non-string name: %v", i, ev)
		}
		ph, ok := ev["ph"].(string)
		if !ok || (ph != "X" && ph != "M") {
			t.Fatalf("event %d (%s): ph = %v, want \"X\" or \"M\"", i, name, ev["ph"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event %d (%s): missing numeric ts", i, name)
		}
		for _, key := range [2]string{"pid", "tid"} {
			v, ok := ev[key].(float64)
			if !ok || v != float64(int(v)) {
				t.Fatalf("event %d (%s): %s = %v, want integer", i, name, key, ev[key])
			}
		}
		if ph == "X" {
			dur, ok := ev["dur"].(float64)
			if !ok || dur < 0 {
				t.Fatalf("event %d (%s): complete event needs dur >= 0, got %v", i, name, ev["dur"])
			}
		}
	}
	return doc.TraceEvents
}

func TestChromeTraceExportFromPipelineRun(t *testing.T) {
	perf.Reset()
	perf.Enable()
	defer func() {
		perf.Disable()
		perf.Reset()
	}()

	ds, err := generic.LoadDataset("EEG", 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := generic.EncoderForDataset(generic.Generic, ds, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := generic.NewPipeline(enc, ds.Classes)
	if _, err := p.Fit(ds.TrainX[:120], ds.TrainY[:120], generic.TrainOptions{Epochs: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(ds.TestX[0]); err != nil {
		t.Fatal(err)
	}

	events := append(perf.Metadata(), perf.Events(perf.Snapshot())...)
	var buf bytes.Buffer
	if err := perf.WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}

	parsed := validateTraceEvents(t, buf.Bytes())

	// The trace must contain wall-clock pipeline spans, at least one of them
	// nested (parented).
	counts := map[string]int{}
	sawParent := false
	spanNames := map[string]bool{}
	for _, ev := range parsed {
		if cat, _ := ev["cat"].(string); cat != "" {
			counts[cat]++
			if cat == "span" {
				spanNames[ev["name"].(string)] = true
				if args, ok := ev["args"].(map[string]any); ok {
					if _, ok := args["parent"]; ok {
						sawParent = true
					}
				}
			}
		}
	}
	if counts["span"] == 0 {
		t.Error("trace has no wall-clock spans")
	}
	if !sawParent {
		t.Error("trace has no nested span (parent arg missing everywhere)")
	}
	for _, want := range [4]string{"pipeline.fit", "fit.epoch", "pipeline.predict", "encode"} {
		if !spanNames[want] {
			t.Errorf("trace is missing expected span %q", want)
		}
	}
}
