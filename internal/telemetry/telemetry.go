// Package telemetry is the runtime observability layer of the engine: cheap
// always-on instruments (atomic counters, gauges, fixed-bucket latency
// histograms) at every layer boundary — the Pipeline's served encode, score
// and adapt, training, fault management, and the serving core — plus a
// deterministic JSON exposition that cmd/generic-serve publishes on
// GET /metrics. The per-sample encode and score kernels stay
// pure: their callers time them.
//
// The package is stdlib-only and allocation-free on the hot path: a timed
// observation is two monotonic-clock reads and two atomic adds, so
// instrumented paths stay within the repository's <5% overhead budget.
// Every type is safe for concurrent use.
//
// Unlike the rest of internal/, telemetry is sanctioned to read the wall
// clock (see the detrand analyzer's skip list): observed durations feed
// operator dashboards, never model state, so replayability is unaffected.
// Model-state code must keep drawing time only through explicit seeds.
//
// Exposition (Registry.AppendJSON, Registry.WriteProm) emits keys in sorted
// order and lists only a histogram's populated buckets, making snapshots
// stable enough for golden tests.
package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors the package's monotonic clock; Now measures against it.
var epoch = time.Now()

// Now returns the telemetry clock in nanoseconds: monotonic, comparable only
// to other Now values. Pair with Histogram.ObserveSince.
//
//generic:hotpath
func Now() int64 { return int64(time.Since(epoch)) }

// A Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n; Inc by one.
//
//generic:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }
func (c *Counter) Inc()        { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) appendJSON(b []byte) []byte { return strconv.AppendInt(b, c.Value(), 10) }
func (c *Counter) reset()                     { c.v.Store(0) }

// A Gauge is an atomic point-in-time value (e.g. masked lanes, queue depth).
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value; Add moves it by n.
//
//generic:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) appendJSON(b []byte) []byte { return strconv.AppendInt(b, g.Value(), 10) }
func (g *Gauge) reset()                     { g.v.Store(0) }

// Histogram bucket layout: power-of-two upper bounds from 2^histMinShift ns
// (512 ns) through 2^(histMinShift+histBuckets-1) ns (~4.3 s), plus one
// overflow bucket. Fixed at compile time so Observe is branch-light and the
// exposition never allocates bucket metadata.
const (
	histMinShift = 9
	histBuckets  = 23
)

// A Histogram is a fixed-bucket latency histogram over nanosecond
// durations. Observations are lock-free atomic adds: one to the sum and one
// to the observation's bucket. There is no separate count: every reader
// takes it from one read of the buckets (load), so a snapshot taken beside
// concurrent observations still has a count equal to its bucket total.
type Histogram struct {
	sum     atomic.Int64
	buckets [histBuckets + 1]atomic.Int64
}

// bucketIndex maps a duration to its bucket: the smallest power-of-two upper
// bound that holds it, saturating into the overflow bucket.
//
//generic:hotpath
func bucketIndex(ns int64) int {
	if ns <= 1<<histMinShift {
		return 0
	}
	i := bits.Len64(uint64(ns-1)) - histMinShift
	if i > histBuckets {
		i = histBuckets
	}
	return i
}

// Observe records one duration in nanoseconds (negative clamps to zero).
//
//generic:hotpath
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.sum.Add(ns)
	h.buckets[bucketIndex(ns)].Add(1)
}

// ObserveSince records the time elapsed since start (a Now value).
//
//generic:hotpath
func (h *Histogram) ObserveSince(start int64) { h.Observe(Now() - start) }

// load reads every bucket once and returns the counts with their total, the
// observation count of that read.
func (h *Histogram) load() (n [histBuckets + 1]int64, count int64) {
	for i := range h.buckets {
		n[i] = h.buckets[i].Load()
		count += n[i]
	}
	return n, count
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	_, count := h.load()
	return count
}

// SumNanos returns the total observed duration.
func (h *Histogram) SumNanos() int64 { return h.sum.Load() }

// BucketBound returns bucket i's inclusive upper bound in nanoseconds, or -1
// for the overflow bucket.
func BucketBound(i int) int64 {
	if i >= histBuckets {
		return -1
	}
	return 1 << (histMinShift + i)
}

// Quantile returns a conservative estimate of the q-quantile of observed
// durations: the upper bound in nanoseconds of the bucket that contains the
// rank-⌈q·count⌉ observation. With power-of-two buckets the estimate is at
// most 2× the true value — acceptable for the latency summaries /metrics
// derives at read time. Returns 0 when the histogram is empty and -1 when
// the quantile lands in the overflow bucket (beyond ~4.3 s).
func (h *Histogram) Quantile(q float64) int64 {
	n, total := h.load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		if cum += n[i]; cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets)
}

// appendJSON renders {"count":N,"sum_ns":S,"buckets":[{"le_ns":B,"n":K},...]}
// listing only populated buckets. The overflow bucket reports le_ns -1.
// The count is the total of the listed buckets.
func (h *Histogram) appendJSON(b []byte) []byte {
	n, count := h.load()
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, count, 10)
	b = append(b, `,"sum_ns":`...)
	b = strconv.AppendInt(b, h.sum.Load(), 10)
	b = append(b, `,"buckets":[`...)
	first := true
	for i := range n {
		if n[i] == 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, `{"le_ns":`...)
		b = strconv.AppendInt(b, BucketBound(i), 10)
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, n[i], 10)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

func (h *Histogram) reset() {
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// metric is the common behavior the registry needs from an instrument.
type metric interface {
	appendJSON(b []byte) []byte
	reset()
}

// A Registry is a named set of instruments with deterministic JSON
// exposition. Registration takes a lock; reads and observations on the
// returned instruments never do.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]metric{}}
}

// register installs the metric under name, or returns the existing one.
// Re-registering a name as a different instrument type is a programmer
// error and panics.
func register[M metric](r *Registry, name string, fresh M) M {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.metrics[name]; ok {
		m, ok := existing.(M)
		if !ok {
			panic("telemetry: metric " + name + " re-registered with a different type")
		}
		return m
	}
	r.metrics[name] = fresh
	return fresh
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return register(r, name, &Counter{}) }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return register(r, name, &Gauge{}) }

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram { return register(r, name, &Histogram{}) }

// snapshot returns the instruments in sorted-name order.
func (r *Registry) snapshot() (names []string, ms []metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Sorted fold over the map: exposition order must not depend on Go's
	// randomized map iteration.
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ms = append(ms, r.metrics[name])
	}
	return names, ms
}

// AppendJSON appends the registry's snapshot as one JSON object with keys in
// sorted order.
func (r *Registry) AppendJSON(b []byte) []byte {
	names, ms := r.snapshot()
	b = append(b, '{')
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, name)
		b = append(b, ':')
		b = ms[i].appendJSON(b)
	}
	return append(b, '}')
}

// Reset zeroes every registered instrument (tests and serve restarts; the
// instruments stay registered and all handles stay valid).
func (r *Registry) Reset() {
	_, ms := r.snapshot()
	for _, m := range ms {
		m.reset()
	}
}

// Default is the process-wide registry. The generic Pipeline, the serving
// core (internal/serve), the quality observer and the commands record into
// it; the kernels and the packages under them do not. cmd/generic-serve
// exposes it on /metrics.
var Default = NewRegistry()

// The canonical instruments, one handle per hot path. Metric names are part
// of the observability contract documented in DESIGN.md §10.
var (
	// Encoding: one observation per sample the Pipeline serves (a predict,
	// single or batch, or an adapt), timing its encode alone; the encoders
	// themselves record nothing.
	EncodeNS = Default.Histogram("encode_ns")

	// Classification: scoring latency of each predict the Pipeline serves
	// (not training's retraining predicts, nor an adapt's
	// predict-before-apply), each Pipeline.Fit's training (timing
	// classifier.Train alone), and online adaptation — the Pipeline's Adapt
	// times Model.Adapt and counts the updates it applies.
	PredictNS  = Default.Histogram("predict_ns")
	FitNS      = Default.Histogram("fit_ns")
	FitEpochs  = Default.Counter("fit_epochs_total")
	FitSamples = Default.Counter("fit_samples_total")
	// FitUpdates counts misclassified training samples per epoch across all
	// strategies (perceptron misprediction updates, LeHDC shadow-model
	// misses); FitLossMicro is the last trained epoch's mean loss in
	// micro-units (loss × 1e6 — the registry's instruments are integral).
	FitUpdates   = Default.Counter("fit_updates_total")
	FitLossMicro = Default.Gauge("fit_loss_micro")
	AdaptNS      = Default.Histogram("adapt_ns")
	AdaptUpdates = Default.Counter("adapt_updates_total")

	// Fault layer: the Pipeline's injections, scrub passes, and repair
	// state; a faults.Controller driven directly records nothing.
	FaultInjections  = Default.Counter("fault_injections_total")
	FaultBits        = Default.Counter("fault_bits_total")
	Scrubs           = Default.Counter("scrubs_total")
	ScrubNS          = Default.Histogram("scrub_ns")
	FaultMaskedLanes = Default.Gauge("fault_masked_lanes")
	FaultPending     = Default.Gauge("fault_pending")

	// Serving core (internal/serve): snapshot lifecycle, adapt WAL
	// durability, admission control, and the self-healing loop. The
	// snapshot gauge is the currently published version; WAL fsync latency
	// is the durability cost each acknowledged adapt pays.
	SnapshotVersion   = Default.Gauge("snapshot_version")
	SnapshotPublishNS = Default.Histogram("snapshot_publish_ns")
	WALAppends        = Default.Counter("wal_appends_total")
	WALBytes          = Default.Counter("wal_bytes_total")
	WALReplayed       = Default.Counter("wal_replayed_total")
	WALErrors         = Default.Counter("wal_errors_total")
	WALFsyncNS        = Default.Histogram("wal_fsync_ns")
	Checkpoints       = Default.Counter("checkpoints_total")
	ServeShed         = Default.Counter("serve_shed_total")
	ServeDeadlines    = Default.Counter("serve_deadline_total")
	ScrubLoopRuns     = Default.Counter("scrub_loop_runs_total")
	ChaosInjections   = Default.Counter("chaos_injections_total")

	// Model quality (internal/quality): the margin histogram reuses the
	// nanosecond bucket machinery over margin micro-units (margin × 1e6, so
	// the sqrt-free power-of-two buckets still resolve the low end); the
	// drift gauges mirror the detector state and the adapt/shadow counters
	// mirror the streaming-accuracy and binary-disagreement aggregates.
	QualityMarginMicro    = Default.Histogram("quality_margin_micro")
	QualityLowMargin      = Default.Counter("quality_low_margin_total")
	QualityDriftChecks    = Default.Counter("quality_drift_checks_total")
	QualityDriftTrips     = Default.Counter("quality_drift_trips_total")
	QualityDriftPSIMicro  = Default.Gauge("quality_drift_psi_micro")
	QualityDriftActive    = Default.Gauge("quality_drift_active")
	QualityAdaptEvals     = Default.Counter("quality_adapt_evals_total")
	QualityAdaptHits      = Default.Counter("quality_adapt_hits_total")
	QualityShadowSamples  = Default.Counter("quality_shadow_samples_total")
	QualityShadowDisagree = Default.Counter("quality_shadow_disagree_total")
)
