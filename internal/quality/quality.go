// Package quality is the model-quality observability layer: where
// internal/telemetry answers "is the engine fast and alive", quality answers
// "is the model still right". It rides signals the classifier already
// computes for free — the top-2 score margin of every served predict (dot
// gap in exact mode, Hamming gap in binary mode), the winner class, the
// predict-before-apply outcome of every labeled adapt, and the binary-vs-
// exact agreement of shadow-sampled predicts — and folds them into:
//
//   - cumulative lock-free cells, one per observed event (winner class ×
//     sqrt-bucketed margin, adapt label × hit, shadow agree/disagree), from
//     which every total — margin distribution, class mix, adapt accuracy,
//     shadow disagreement — is derived;
//   - a snapshot ring that turns the cumulative cells into rolling-window
//     aggregates by differencing (no hot-path resets, so concurrent
//     observation and window rotation can never lose or double-count an
//     event — aggregates stay exactly equal to a serial oracle);
//   - a PSI drift detector (profile.go) comparing the rolling window against
//     a reference profile captured at Fit/Binarize time.
//
// The package is stdlib-only, allocation-free on the observe path, and —
// like telemetry — never feeds model state: every signal flows outward to
// operators (/quality, /metrics, the serve health machine), never back into
// the classifier, so determinism and replayability are unaffected. Time is
// drawn only through telemetry.Now.
package quality

import (
	"math"
	"sync/atomic"

	"github.com/edge-hdc/generic/internal/telemetry"
)

const (
	// MarginBuckets is the number of sqrt-scaled margin histogram buckets.
	// Normalized margins live in [0,1] and pile up near zero for hard
	// queries, so bucket i covers (i/N)²..((i+1)/N)² — fine resolution where
	// the decisions are close, coarse where they are easy.
	MarginBuckets = 24

	// TrackedClasses is the number of class labels with individual slots in
	// the prediction-mix and adapt-accuracy aggregates; labels at or above
	// it share one overflow slot. All paper benchmarks fit (max 26 classes).
	TrackedClasses = 32

	// ClassSlots is TrackedClasses plus the shared overflow slot.
	ClassSlots = TrackedClasses + 1

	// ringSlots is the snapshot ring depth: Window spans at most ringSlots
	// rotation intervals.
	ringSlots = 8

	// DefaultLowMarginMicro is the default low-margin threshold (margin
	// 0.05, in micro-units): below it a predict counts as "barely decided".
	DefaultLowMarginMicro = 50_000
)

// MarginBucket maps a normalized margin in [0,1] to its histogram bucket.
//
//generic:hotpath
func MarginBucket(m float64) int {
	if m <= 0 {
		return 0
	}
	if m >= 1 {
		return MarginBuckets - 1
	}
	i := int(math.Sqrt(m) * MarginBuckets)
	if i >= MarginBuckets {
		i = MarginBuckets - 1
	}
	return i
}

// BucketUpper returns bucket i's inclusive upper margin bound.
func BucketUpper(i int) float64 {
	f := float64(i+1) / MarginBuckets
	return f * f
}

// classSlot maps a class label to its aggregate slot, folding out-of-range
// labels (negative or >= TrackedClasses) into the overflow slot.
//
//generic:hotpath
func classSlot(class int) int {
	if class < 0 || class >= TrackedClasses {
		return TrackedClasses
	}
	return class
}

// counters is one cumulative (or snapshotted) set of quality cells. An
// observed event adds to exactly one cell, plus the margin sum and, below
// the low-margin threshold, the low-margin count: the threshold is settable
// and does not line up with bucket edges. Stats derives every other total
// from one read of the cells (since).
type counters struct {
	predicts       [ClassSlots][MarginBuckets]atomic.Int64
	adapts         [ClassSlots][2]atomic.Int64 // [label][0: miss, 1: hit]
	shadows        [2]atomic.Int64             // [0: agree, 1: disagree]
	marginSumMicro atomic.Int64
	lowMargin      atomic.Int64
}

// emptyCounters is the all-zero base that Total differences against.
var emptyCounters counters

// since reads every cell once, right after its base cell, and derives the
// Stats totals from the differences. A base cell is an earlier copy of its
// cumulative cell (or zero), and cumulative cells only grow, so no
// difference is negative — even when Rotate is rewriting the base slot and
// the read mixes two snapshots.
func (c *counters) since(base *counters) Stats {
	diff := func(cur, old *atomic.Int64) int64 {
		o := old.Load() // base first; see above
		return cur.Load() - o
	}
	var st Stats
	for k := range c.predicts {
		for b := range c.predicts[k] {
			n := diff(&c.predicts[k][b], &base.predicts[k][b])
			st.Buckets[b] += n
			st.Classes[k] += n
			st.Predicts += n
		}
	}
	for k := range c.adapts {
		miss := diff(&c.adapts[k][0], &base.adapts[k][0])
		hit := diff(&c.adapts[k][1], &base.adapts[k][1])
		st.AdaptClassEvals[k] = miss + hit
		st.AdaptClassHits[k] = hit
		st.AdaptEvals += miss + hit
		st.AdaptHits += hit
	}
	agree := diff(&c.shadows[0], &base.shadows[0])
	st.ShadowDisagree = diff(&c.shadows[1], &base.shadows[1])
	st.ShadowSamples = agree + st.ShadowDisagree
	st.MarginSumMicro = diff(&c.marginSumMicro, &base.marginSumMicro)
	st.LowMargin = diff(&c.lowMargin, &base.lowMargin)
	return st
}

// copyFrom overwrites c with src cell by cell (ring slots only: nothing
// but observation writes the cumulative set).
func (c *counters) copyFrom(src *counters) {
	for k := range src.predicts {
		for b := range src.predicts[k] {
			c.predicts[k][b].Store(src.predicts[k][b].Load())
		}
	}
	for k := range src.adapts {
		for h := range src.adapts[k] {
			c.adapts[k][h].Store(src.adapts[k][h].Load())
		}
	}
	for i := range src.shadows {
		c.shadows[i].Store(src.shadows[i].Load())
	}
	c.marginSumMicro.Store(src.marginSumMicro.Load())
	c.lowMargin.Store(src.lowMargin.Load())
}

// ringSlot is one published snapshot of the cumulative counters.
type ringSlot struct {
	at atomic.Int64 // telemetry.Now at snapshot time
	c  counters
}

// An Observer accumulates quality signals. Observation methods are lock-free
// and safe for any concurrency; Rotate must be called from a single
// goroutine (the monitor loop), while Window/Total may race freely with
// everything.
//
// The hot path only ever *adds* to the cumulative set — windows are formed
// by differencing ring snapshots at read time — so no observation is ever
// lost or double-counted across a rotation, no matter the interleaving.
type Observer struct {
	cum            counters
	lowMarginMicro atomic.Int64 // threshold for the low-margin counter
	shadowSeq      atomic.Int64 // global shadow-sampling tick
	head           atomic.Int64 // rotations completed; slot (head-1)%ringSlots is newest
	bootAt         int64        // telemetry.Now at construction
	ring           [ringSlots]ringSlot
}

// NewObserver returns an Observer with the default low-margin threshold.
func NewObserver() *Observer {
	o := &Observer{bootAt: telemetry.Now()}
	o.lowMarginMicro.Store(DefaultLowMarginMicro)
	return o
}

// Default is the process-wide observer. The Pipeline records each served
// predict, adapt and shadow sample into it — the classifier kernels record
// nothing — and cmd/generic-serve rotates and exposes it.
var Default = NewObserver()

// SetLowMarginThreshold sets the margin below which a predict counts as
// low-margin. Applies to future observations only.
func (o *Observer) SetLowMarginThreshold(margin float64) {
	o.lowMarginMicro.Store(int64(margin * 1e6))
}

// ObservePredict records one predict outcome: the winner class and the
// normalized top-2 margin in [0,1]. Also feeds the telemetry margin
// histogram and low-margin counter.
//
//generic:hotpath
func (o *Observer) ObservePredict(class int, margin float64) {
	if margin < 0 {
		margin = 0
	} else if margin > 1 {
		margin = 1
	}
	mi := int64(margin * 1e6)
	o.cum.predicts[classSlot(class)][MarginBucket(margin)].Add(1)
	o.cum.marginSumMicro.Add(mi)
	if mi < o.lowMarginMicro.Load() {
		o.cum.lowMargin.Add(1)
		telemetry.QualityLowMargin.Inc()
	}
	telemetry.QualityMarginMicro.Observe(mi)
}

// ObserveAdapt records one labeled adapt as a streaming accuracy sample:
// label is the ground truth, correct whether the predict-before-apply
// matched it.
//
//generic:hotpath
func (o *Observer) ObserveAdapt(label int, correct bool) {
	telemetry.QualityAdaptEvals.Inc()
	hit := 0
	if correct {
		hit = 1
		telemetry.QualityAdaptHits.Inc()
	}
	o.cum.adapts[classSlot(label)][hit].Add(1)
}

// ObserveShadow records one shadow-mode comparison: agree is whether the
// binary fast path and the retained integer counters picked the same class.
//
//generic:hotpath
func (o *Observer) ObserveShadow(agree bool) {
	telemetry.QualityShadowSamples.Inc()
	disagree := 0
	if !agree {
		disagree = 1
		telemetry.QualityShadowDisagree.Inc()
	}
	o.cum.shadows[disagree].Add(1)
}

// ShadowTick advances the global shadow-sampling sequence and returns it;
// callers sample when ShadowTick()%every == 0.
//
//generic:hotpath
func (o *Observer) ShadowTick() int64 { return o.shadowSeq.Add(1) }

// Rotate publishes a snapshot of the cumulative counters into the ring,
// copying them cell by cell. Call it from one goroutine at the window
// cadence; Window then spans at most ringSlots rotation intervals.
func (o *Observer) Rotate() {
	h := o.head.Load()
	slot := &o.ring[h%ringSlots]
	slot.c.copyFrom(&o.cum)
	slot.at.Store(telemetry.Now())
	o.head.Add(1) // publish: readers only trust slots below head
}

// Total returns the cumulative aggregates since construction.
func (o *Observer) Total() Stats { return o.stats(&emptyCounters, o.bootAt) }

// Window returns the rolling-window aggregates: the cumulative counters
// minus the oldest live ring snapshot. Before the first rotation the window
// is everything since construction. Safe to call concurrently with
// observation and rotation (see counters.since).
func (o *Observer) Window() Stats {
	h := o.head.Load()
	if h == 0 {
		return o.Total()
	}
	// Oldest live slot: with fewer than ringSlots rotations it is slot 0;
	// once the ring wraps it is the next slot Rotate will overwrite.
	idx := int64(0)
	if h >= ringSlots {
		idx = h % ringSlots
	}
	slot := &o.ring[idx]
	return o.stats(&slot.c, slot.at.Load())
}

// stats returns the cumulative counters minus base, spanning from baseAt.
func (o *Observer) stats(base *counters, baseAt int64) Stats {
	st := o.cum.since(base)
	st.At = telemetry.Now()
	st.SpanNS = st.At - baseAt
	return st
}

// Stats is a plain-value aggregate: either cumulative (Total) or a window
// difference (Window). Every total is derived from one read of the
// observer's cells, so each snapshot — even one torn by concurrent
// writers, and every window difference — satisfies:
//
//   - Predicts == Σ Buckets == Σ Classes;
//   - AdaptEvals == Σ AdaptClassEvals, AdaptHits == Σ AdaptClassHits, and
//     hits never exceed evals, in total or per class;
//   - 0 <= ShadowDisagree <= ShadowSamples;
//   - every count is non-negative.
type Stats struct {
	At     int64 // telemetry.Now at the fresh edge
	SpanNS int64 // window span in nanoseconds

	Predicts       int64
	MarginSumMicro int64
	LowMargin      int64
	Buckets        [MarginBuckets]int64
	Classes        [ClassSlots]int64

	AdaptEvals      int64
	AdaptHits       int64
	AdaptClassEvals [ClassSlots]int64
	AdaptClassHits  [ClassSlots]int64

	ShadowSamples  int64
	ShadowDisagree int64
}

// BucketTotal returns the number of predicts in the margin histogram. It
// always equals Predicts (see Stats).
func (s *Stats) BucketTotal() int64 {
	var t int64
	for i := range s.Buckets {
		t += s.Buckets[i]
	}
	return t
}

// MarginQuantile returns a conservative q-quantile of the window's margins:
// the upper bound of the bucket holding the rank-⌈q·n⌉ observation. Zero
// when the window is empty.
func (s *Stats) MarginQuantile(q float64) float64 {
	if s.Predicts == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Predicts)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < MarginBuckets-1; i++ {
		if cum += s.Buckets[i]; cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(MarginBuckets - 1)
}

// MeanMargin returns the window's mean normalized margin, or 0 when empty.
func (s *Stats) MeanMargin() float64 {
	if s.Predicts == 0 {
		return 0
	}
	return float64(s.MarginSumMicro) / 1e6 / float64(s.Predicts)
}

// LowMarginRate returns the fraction of predicts below the low-margin
// threshold, or 0 when empty.
func (s *Stats) LowMarginRate() float64 {
	if s.Predicts == 0 {
		return 0
	}
	return float64(s.LowMargin) / float64(s.Predicts)
}

// ClassMix returns the per-slot fraction of predictions over the first n
// class slots (n is clamped to ClassSlots). Zero-filled when empty.
func (s *Stats) ClassMix(n int) []float64 {
	if n < 0 {
		n = 0
	} else if n > ClassSlots {
		n = ClassSlots
	}
	mix := make([]float64, n)
	if s.Predicts == 0 {
		return mix
	}
	for i := range mix {
		mix[i] = float64(s.Classes[i]) / float64(s.Predicts)
	}
	return mix
}

// AdaptAccuracy returns the window's streaming accuracy over labeled adapt
// traffic and whether any samples exist.
func (s *Stats) AdaptAccuracy() (float64, bool) {
	if s.AdaptEvals == 0 {
		return 0, false
	}
	return float64(s.AdaptHits) / float64(s.AdaptEvals), true
}

// ClassAdaptAccuracy returns slot i's streaming accuracy and whether any
// samples exist for it.
func (s *Stats) ClassAdaptAccuracy(i int) (float64, bool) {
	if i < 0 || i >= ClassSlots || s.AdaptClassEvals[i] == 0 {
		return 0, false
	}
	return float64(s.AdaptClassHits[i]) / float64(s.AdaptClassEvals[i]), true
}

// ShadowDisagreeRate returns the binary-vs-exact disagreement rate over the
// window's shadow samples and whether any exist.
func (s *Stats) ShadowDisagreeRate() (float64, bool) {
	if s.ShadowSamples == 0 {
		return 0, false
	}
	return float64(s.ShadowDisagree) / float64(s.ShadowSamples), true
}
