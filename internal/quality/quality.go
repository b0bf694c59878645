// Package quality is the model-quality observability layer: where
// internal/telemetry answers "is the engine fast and alive", quality answers
// "is the model still right". It rides signals the classifier already
// computes for free — the top-2 score margin of every served predict (dot
// gap in exact mode, Hamming gap in binary mode), the winner class, the
// predict-before-apply outcome of every labeled adapt, and the binary-vs-
// exact agreement of shadow-sampled predicts — and folds them into:
//
//   - cumulative lock-free counters (margin sum, sqrt-bucketed margin
//     distribution, per-class prediction mix, adapt accuracy, shadow
//     disagreement), observed with a handful of atomic adds per predict;
//   - a snapshot ring that turns the cumulative counters into rolling-window
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

// counters is one cumulative (or snapshotted) set of quality aggregates.
// Every field is atomic so the ring can copy a consistent-enough snapshot
// under concurrent observation without locks; exact cross-field consistency
// is recovered by the window invariant (see Stats).
type counters struct {
	predicts       atomic.Int64
	marginSumMicro atomic.Int64
	lowMargin      atomic.Int64
	buckets        [MarginBuckets]atomic.Int64
	classes        [ClassSlots]atomic.Int64

	adaptEvals      atomic.Int64
	adaptHits       atomic.Int64
	adaptClassEvals [ClassSlots]atomic.Int64
	adaptClassHits  [ClassSlots]atomic.Int64

	shadowSamples  atomic.Int64
	shadowDisagree atomic.Int64
}

// load copies the counter set into a plain Stats value.
func (c *counters) load(st *Stats) {
	st.Predicts = c.predicts.Load()
	st.MarginSumMicro = c.marginSumMicro.Load()
	st.LowMargin = c.lowMargin.Load()
	for i := range c.buckets {
		st.Buckets[i] = c.buckets[i].Load()
	}
	for i := range c.classes {
		st.Classes[i] = c.classes[i].Load()
	}
	st.AdaptEvals = c.adaptEvals.Load()
	st.AdaptHits = c.adaptHits.Load()
	for i := range c.adaptClassEvals {
		st.AdaptClassEvals[i] = c.adaptClassEvals[i].Load()
		st.AdaptClassHits[i] = c.adaptClassHits[i].Load()
	}
	st.ShadowSamples = c.shadowSamples.Load()
	st.ShadowDisagree = c.shadowDisagree.Load()
}

// store overwrites the counter set from a plain Stats value (ring slots
// only; the cumulative set is never stored into).
func (c *counters) store(st *Stats) {
	c.predicts.Store(st.Predicts)
	c.marginSumMicro.Store(st.MarginSumMicro)
	c.lowMargin.Store(st.LowMargin)
	for i := range c.buckets {
		c.buckets[i].Store(st.Buckets[i])
	}
	for i := range c.classes {
		c.classes[i].Store(st.Classes[i])
	}
	c.adaptEvals.Store(st.AdaptEvals)
	c.adaptHits.Store(st.AdaptHits)
	for i := range c.adaptClassEvals {
		c.adaptClassEvals[i].Store(st.AdaptClassEvals[i])
		c.adaptClassHits[i].Store(st.AdaptClassHits[i])
	}
	c.shadowSamples.Store(st.ShadowSamples)
	c.shadowDisagree.Store(st.ShadowDisagree)
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
	o.cum.predicts.Add(1)
	o.cum.marginSumMicro.Add(mi)
	o.cum.buckets[MarginBucket(margin)].Add(1)
	o.cum.classes[classSlot(class)].Add(1)
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
	s := classSlot(label)
	o.cum.adaptEvals.Add(1)
	o.cum.adaptClassEvals[s].Add(1)
	telemetry.QualityAdaptEvals.Inc()
	if correct {
		o.cum.adaptHits.Add(1)
		o.cum.adaptClassHits[s].Add(1)
		telemetry.QualityAdaptHits.Inc()
	}
}

// ObserveShadow records one shadow-mode comparison: agree is whether the
// binary fast path and the retained integer counters picked the same class.
//
//generic:hotpath
func (o *Observer) ObserveShadow(agree bool) {
	o.cum.shadowSamples.Add(1)
	telemetry.QualityShadowSamples.Inc()
	if !agree {
		o.cum.shadowDisagree.Add(1)
		telemetry.QualityShadowDisagree.Inc()
	}
}

// ShadowTick advances the global shadow-sampling sequence and returns it;
// callers sample when ShadowTick()%every == 0.
//
//generic:hotpath
func (o *Observer) ShadowTick() int64 { return o.shadowSeq.Add(1) }

// Rotate publishes a snapshot of the cumulative counters into the ring.
// Call it from one goroutine at the window cadence; Window then spans at
// most ringSlots rotation intervals.
func (o *Observer) Rotate() {
	var st Stats
	o.cum.load(&st)
	h := o.head.Load()
	slot := &o.ring[h%ringSlots]
	slot.c.store(&st)
	slot.at.Store(telemetry.Now())
	o.head.Add(1) // publish: readers only trust slots below head
}

// Total returns the cumulative aggregates since construction.
func (o *Observer) Total() Stats {
	var st Stats
	o.cum.load(&st)
	st.At = telemetry.Now()
	st.SpanNS = st.At - o.bootAt
	return st
}

// Window returns the rolling-window aggregates: the cumulative counters
// minus the oldest live ring snapshot. Before the first rotation the window
// is everything since construction. Safe to call concurrently with
// observation and rotation; see sub for the invariants that survive races.
func (o *Observer) Window() Stats {
	cur := o.Total()
	h := o.head.Load()
	if h == 0 {
		return cur
	}
	// Oldest live slot: with fewer than ringSlots rotations it is slot 0;
	// once the ring wraps it is the next slot Rotate will overwrite.
	idx := int64(0)
	if h >= ringSlots {
		idx = h % ringSlots
	}
	var base Stats
	slot := &o.ring[idx]
	baseAt := slot.at.Load()
	slot.c.load(&base)
	return sub(cur, &base, baseAt)
}

// Stats is a plain-value aggregate: either cumulative (Total) or a window
// difference (Window). Invariants that hold even under racy snapshots:
// counts are non-negative, Predicts >= sum(Buckets) is within in-flight
// observations of equality, and ratios are computed against the matching
// denominators.
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

// sub returns cur minus base, clamping each field at zero: a ring slot
// written concurrently with observation can be fresher field-by-field than
// the cumulative load that preceded it, and a clamped zero beats a negative
// count in every downstream ratio.
func sub(cur Stats, base *Stats, baseAt int64) Stats {
	d := Stats{At: cur.At, SpanNS: cur.At - baseAt}
	d.Predicts = clamp0(cur.Predicts - base.Predicts)
	d.MarginSumMicro = clamp0(cur.MarginSumMicro - base.MarginSumMicro)
	d.LowMargin = clamp0(cur.LowMargin - base.LowMargin)
	for i := range d.Buckets {
		d.Buckets[i] = clamp0(cur.Buckets[i] - base.Buckets[i])
	}
	for i := range d.Classes {
		d.Classes[i] = clamp0(cur.Classes[i] - base.Classes[i])
	}
	d.AdaptEvals = clamp0(cur.AdaptEvals - base.AdaptEvals)
	d.AdaptHits = clamp0(cur.AdaptHits - base.AdaptHits)
	for i := range d.AdaptClassEvals {
		d.AdaptClassEvals[i] = clamp0(cur.AdaptClassEvals[i] - base.AdaptClassEvals[i])
		d.AdaptClassHits[i] = clamp0(cur.AdaptClassHits[i] - base.AdaptClassHits[i])
	}
	d.ShadowSamples = clamp0(cur.ShadowSamples - base.ShadowSamples)
	d.ShadowDisagree = clamp0(cur.ShadowDisagree - base.ShadowDisagree)
	return d
}

func clamp0(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// BucketTotal returns the number of predicts in the margin histogram — the
// quantile denominator (preferred over Predicts under racy snapshots).
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
	total := s.BucketTotal()
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
	last := 0
	for i := range s.Buckets {
		n := s.Buckets[i]
		if n == 0 {
			continue
		}
		last = i
		if cum += n; cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(last)
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
	var total int64
	for i := range s.Classes {
		total += s.Classes[i]
	}
	if total == 0 {
		return mix
	}
	for i := 0; i < n; i++ {
		mix[i] = float64(s.Classes[i]) / float64(total)
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
