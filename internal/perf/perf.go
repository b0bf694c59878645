// Package perf is the performance-observability layer of the engine: a
// request-scoped span tracer threaded through the pipeline hot paths
// (encode, score, fit/adapt epochs, fault scrub), a Chrome trace-event
// exporter that unifies wall-clock spans with the accelerator simulator's
// cycle timeline, and the benchmark-statistics machinery behind
// cmd/generic-perf (summaries, BENCH_GENERIC.json, regression compare).
//
// The tracer is off by default and built so the disabled path costs one
// atomic load per instrumentation site — the repository's <5% overhead
// budget holds even on BenchmarkPipelinePredict, whose body is microseconds.
// When enabled, finished spans land in a fixed-capacity atomic ring buffer
// (oldest records are overwritten; nothing blocks, nothing allocates beyond
// the record itself), so tracing a long run has bounded memory.
//
// Span identity is deterministic: IDs derive from an internal/rng SplitMix64
// stream keyed by the tracer seed and an atomic sequence number, so two
// identical serial runs produce identical traces — the same replayability
// stance the rest of the repository takes, applied to observability.
//
// Like internal/telemetry, perf is a sanctioned observability clock (see the
// detrand analyzer's skip list): spans measure wall time for operator eyes,
// and no perf value ever feeds back into model state. Timestamps come from
// the telemetry monotonic clock so span traces and latency histograms share
// one timebase.
package perf

import (
	"context"
	"runtime/pprof"
	"sync/atomic"

	"github.com/edge-hdc/generic/internal/rng"
	"github.com/edge-hdc/generic/internal/telemetry"
)

// Record is one finished span as stored in the ring buffer.
type Record struct {
	// Name is the span's phase name ("pipeline.predict", "encode", ...).
	Name string
	// ID is the span's deterministic identifier; Parent is the enclosing
	// span's ID (0 for a root span).
	ID, Parent uint64
	// Start is the span's start time on the telemetry monotonic clock
	// (nanoseconds, comparable across spans and histograms in one process);
	// Dur is the span's duration in nanoseconds.
	Start, Dur int64
}

// A Span is an in-flight timed region. The zero of *Span (nil) is the
// disabled tracer's span: every method on a nil *Span is a no-op, so call
// sites never branch on enablement themselves.
type Span struct {
	tracer *Tracer
	name   string
	id     uint64
	parent uint64
	start  int64
	// labelCtx/prevCtx carry pprof goroutine labels for spans created via
	// Start: End restores prevCtx's labels. Both are nil for Begin/Child
	// spans, which skip label propagation to stay cheap.
	prevCtx context.Context
}

// A Tracer records spans into a fixed-capacity ring buffer. All methods are
// safe for concurrent use; Enable/Disable may race with Begin/End freely
// (spans started while enabled still record on End).
type Tracer struct {
	enabled atomic.Bool
	seed    uint64
	seq     atomic.Uint64
	cursor  atomic.Uint64
	slots   []atomic.Pointer[Record]
}

// New returns a disabled tracer holding up to capacity finished spans
// (minimum 1); seed keys the deterministic span-ID stream.
func New(capacity int, seed uint64) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{seed: seed, slots: make([]atomic.Pointer[Record], capacity)}
}

// Enable turns span recording on; Disable turns it off. Enabled reports the
// current state.
func (t *Tracer) Enable()       { t.enabled.Store(true) }
func (t *Tracer) Disable()      { t.enabled.Store(false) }
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Reset discards all recorded spans and rewinds the ID sequence, so a fresh
// run over the same code path reproduces the same span IDs.
func (t *Tracer) Reset() {
	for i := range t.slots {
		t.slots[i].Store(nil)
	}
	t.cursor.Store(0)
	t.seq.Store(0)
}

// nextID derives the next deterministic span ID: the atomic sequence number
// keyed into a SplitMix64 stream by the tracer seed. IDs are nonzero (0
// means "no parent" in Record).
//
//generic:hotpath
func (t *Tracer) nextID() uint64 {
	z := t.seed ^ t.seq.Add(1)*0x9e3779b97f4a7c15
	id := rng.SplitMix64(&z)
	if id == 0 {
		id = 1
	}
	return id
}

// Begin opens a root span, or returns nil immediately when the tracer is
// disabled (one atomic load — the entire disabled-path cost).
//
//generic:hotpath
func (t *Tracer) Begin(name string) *Span {
	if !t.enabled.Load() {
		return nil
	}
	//lint:ignore generic/hotalloc span allocation happens only when tracing is enabled; the disabled path above is the hot one and costs one atomic load
	return &Span{tracer: t, name: name, id: t.nextID(), start: telemetry.Now()}
}

// Child opens a span nested under s. On a nil span (disabled tracer) it
// returns nil.
//
//generic:hotpath
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	//lint:ignore generic/hotalloc child spans exist only when tracing is enabled; disabled-path calls return nil above
	return &Span{tracer: s.tracer, name: name, id: s.tracer.nextID(), parent: s.id, start: telemetry.Now()}
}

// spanKey carries the current span through a context.
type spanKey struct{}

// FromContext returns the span stored in ctx by Start, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Start opens a request-scoped span: the parent is taken from ctx (so
// handler → pipeline call chains nest), the returned context carries the new
// span for further nesting, and the goroutine's pprof labels gain
// span=<name> so CPU profiles taken while the span runs attribute samples to
// it. End restores the previous labels. When the tracer is disabled the
// original ctx and a nil span are returned.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if !t.enabled.Load() {
		return ctx, nil
	}
	s := &Span{tracer: t, name: name, id: t.nextID(), start: telemetry.Now(), prevCtx: ctx}
	if parent := FromContext(ctx); parent != nil {
		s.parent = parent.id
	}
	ctx = pprof.WithLabels(context.WithValue(ctx, spanKey{}, s), pprof.Labels("span", name))
	pprof.SetGoroutineLabels(ctx)
	return ctx, s
}

// End closes the span and stores its record in the ring buffer. No-op on a
// nil span. A span must be ended at most once, on the goroutine that is
// currently running it.
//
//generic:hotpath
func (s *Span) End() {
	if s == nil {
		return
	}
	//lint:ignore generic/hotalloc the record is the span's output and exists only when tracing is enabled (End on a nil span returned above)
	rec := &Record{Name: s.name, ID: s.id, Parent: s.parent,
		Start: s.start, Dur: telemetry.Now() - s.start}
	t := s.tracer
	i := t.cursor.Add(1) - 1
	t.slots[i%uint64(len(t.slots))].Store(rec)
	if s.prevCtx != nil {
		pprof.SetGoroutineLabels(s.prevCtx)
	}
}

// Snapshot returns the recorded spans ordered by start time (ties by ID).
// When more spans finished than the tracer's capacity, only the most recent
// capacity records survive (ring semantics).
func (t *Tracer) Snapshot() []Record {
	out := make([]Record, 0, len(t.slots))
	for i := range t.slots {
		if r := t.slots[i].Load(); r != nil {
			out = append(out, *r)
		}
	}
	sortRecords(out)
	return out
}

// sortRecords orders by (Start, ID) — parents, which start no later than
// their children, come first, and equal-start spans order deterministically.
func sortRecords(rs []Record) {
	// Insertion sort keeps this dependency-free and the record counts are
	// ring-capacity bounded.
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0; j-- {
			a, b := rs[j-1], rs[j]
			if a.Start < b.Start || (a.Start == b.Start && a.ID <= b.ID) {
				break
			}
			rs[j-1], rs[j] = b, a
		}
	}
}

// DefaultCapacity is the default tracer's ring size: enough for every span
// of a full train-plus-evaluate run at per-epoch granularity.
const DefaultCapacity = 1 << 14

// Default is the process-wide tracer the instrumented hot paths record into,
// disabled until a tool (generic-perf, the -trace flag of generic-train /
// generic-cluster / generic-bench) enables it.
var Default = New(DefaultCapacity, 0x67656e65726963)

// Package-level forwarders to Default, mirroring telemetry's usage style.

// Enable turns the default tracer on; Disable off; Enabled reports it.
func Enable()       { Default.Enable() }
func Disable()      { Default.Disable() }
func Enabled() bool { return Default.Enabled() }

// Begin opens a root span on the default tracer (nil when disabled).
//
//generic:hotpath
func Begin(name string) *Span { return Default.Begin(name) }

// Start opens a request-scoped span on the default tracer.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	return Default.Start(ctx, name)
}

// Snapshot returns the default tracer's recorded spans; Reset clears them.
func Snapshot() []Record { return Default.Snapshot() }
func Reset()             { Default.Reset() }
