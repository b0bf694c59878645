// Chrome trace-event export: recorded spans serialize into the Trace Event
// Format (the JSON chrome://tracing and Perfetto load).
package perf

import (
	"encoding/json"
	"fmt"
	"io"
)

// Trace-event pid/tid layout: wall-clock spans render on the pipeline thread
// of one process row.
const (
	TracePID     = 1
	TIDPipeline  = 1
	processName  = "generic"
	pipelineName = "pipeline (wall clock)"
)

// TraceEvent is one entry of the Chrome Trace Event Format. Spans emit "X"
// (complete) events with microsecond timestamps; process and thread names
// emit "M" (metadata) events.
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the envelope chrome://tracing expects.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Metadata returns the naming events for the process and its pipeline
// thread; include them once per exported file.
func Metadata() []TraceEvent {
	name := func(ph string, tid int, n string) TraceEvent {
		return TraceEvent{Name: ph, Phase: "M", PID: TracePID, TID: tid,
			Args: map[string]any{"name": n}}
	}
	return []TraceEvent{
		name("process_name", TIDPipeline, processName),
		name("thread_name", TIDPipeline, pipelineName),
	}
}

// Events converts finished span records into complete trace events on the
// pipeline thread. Span ID and parent ID ride along in args so the nesting
// recorded at runtime survives even where the viewer stacks by time alone.
func Events(records []Record) []TraceEvent {
	out := make([]TraceEvent, len(records))
	for i, r := range records {
		args := map[string]any{"id": fmt.Sprintf("%016x", r.ID)}
		if r.Parent != 0 {
			args["parent"] = fmt.Sprintf("%016x", r.Parent)
		}
		out[i] = TraceEvent{
			Name: r.Name, Cat: "span", Phase: "X",
			TS: float64(r.Start) / 1e3, Dur: float64(r.Dur) / 1e3,
			PID: TracePID, TID: TIDPipeline, Args: args,
		}
	}
	return out
}

// WriteTrace writes the events as one Chrome trace-event JSON document.
// Callers typically pass append(Metadata(), Events(t.Snapshot())...).
func WriteTrace(w io.Writer, events []TraceEvent) error {
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ns"})
}
