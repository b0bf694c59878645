// Package classifier implements GENERIC's HDC classification model:
// one-shot training by class bundling, iterative retraining on
// mispredictions (Fig. 1), inference with the modified cosine metric, plus
// the model-side hooks for the paper's energy-reduction techniques —
// bit-width quantization (§4.3.4/Fig. 6), on-demand dimension reduction
// with per-128-dimension sub-norms (§4.3.3/Fig. 5), and the class-memory
// write path (MutableClass) that internal/faults corrupts for voltage
// over-scaling studies.
package classifier

import (
	"fmt"
	"math"
	"sort"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/parallel"
)

// SubNormGranularity is the dimension granularity at which GENERIC stores
// squared sub-norms in the norm2 memory, enabling accurate similarity after
// on-demand dimension reduction (paper §4.3.3).
const SubNormGranularity = 128

// Options configures training.
type Options struct {
	// Epochs is the number of retraining passes after initialization.
	// The paper uses a constant 20, which zero means; negative is an error.
	Epochs int
	// Seed drives the per-epoch shuffling of the training set.
	Seed uint64
	// BW is the class-element bit-width; class values saturate at this
	// width during accumulation, like the accelerator's 16-bit memories.
	// Zero means 16; outside [1, hdc.MaxSatBits] is an error.
	BW int
	// Workers bounds the parallelism of training: the initialization
	// bundling and norm refresh, and the perceptron's retraining, which is
	// scored ahead on the workers and applied in serial order. Zero or
	// negative means GOMAXPROCS; 1 forces the serial path. The per-sample
	// update order is part of the algorithm and is kept, so results are
	// bit-identical for every worker count.
	Workers int
	// Trainer selects the training strategy by name (see TrainerNames):
	// "" or "perceptron" is the paper's one-shot+perceptron path, "lehdc"
	// the learned-classifier strategy.
	Trainer string
	// LR is the LeHDC initial learning rate (zero means 0.5); LRDecay the
	// per-epoch multiplicative decay (zero means 0.95); BatchSize the
	// mini-batch size (zero means 16). The perceptron strategy ignores all
	// three.
	LR        float64
	LRDecay   float64
	BatchSize int
}

// validate rejects defaulted options no strategy can run: a negative epoch
// count, and a class bit-width outside [1, hdc.MaxSatBits].
func (o Options) validate() error {
	if o.Epochs < 0 {
		return fmt.Errorf("classifier: Train: Epochs=%d must not be negative", o.Epochs)
	}
	if o.BW < 1 || o.BW > hdc.MaxSatBits {
		return fmt.Errorf("classifier: Train: BW=%d out of range [1,%d]", o.BW, hdc.MaxSatBits)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Epochs == 0 {
		o.Epochs = 20
	}
	if o.BW == 0 {
		o.BW = 16
	}
	if o.LR == 0 {
		o.LR = 0.5
	}
	if o.LRDecay == 0 {
		o.LRDecay = 0.95
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 16
	}
	return o
}

// Model is a trained HDC classification model: one integer hypervector per
// class plus the squared-norm bookkeeping the similarity metric needs.
//
// Class rows are per-row references shared copy-on-write across Clone: a
// clone starts owning no rows, and every writer first takes ownership of
// the rows it writes (own), copying a row and its sub-norm ladder only when
// another model may still reference them. A retraining step therefore
// copies the two classes it touches, not the model.
type Model struct {
	d       int
	classes []hdc.Vec
	bw      int
	// norm2[c] is ‖C_c‖²; subNorm2[c][k] is the squared norm of the first
	// (k+1)·SubNormGranularity dimensions of class c. norm2 is one word per
	// class and is copied by every Clone; subNorm2 rows share like classes.
	norm2    []int64
	subNorm2 [][]int64
	// owned[c] reports that classes[c] and subNorm2[c] are referenced by
	// this model alone and may be written in place.
	owned []bool
}

// NewModel returns an all-zero model with nC classes of dimensionality d.
func NewModel(d, nC, bw int) *Model {
	if d <= 0 || d%SubNormGranularity != 0 {
		panic(fmt.Sprintf("classifier: D=%d must be a positive multiple of %d", d, SubNormGranularity))
	}
	if nC < 2 {
		panic(fmt.Sprintf("classifier: need at least 2 classes, got %d", nC))
	}
	if bw == 0 {
		bw = 16
	}
	m := &Model{d: d, bw: bw}
	m.classes = make([]hdc.Vec, nC)
	for c := range m.classes {
		m.classes[c] = hdc.NewVec(d)
	}
	m.norm2 = make([]int64, nC)
	m.subNorm2 = make([][]int64, nC)
	m.owned = make([]bool, nC)
	for c := range m.subNorm2 {
		m.subNorm2[c] = make([]int64, d/SubNormGranularity)
		m.owned[c] = true
	}
	return m
}

// own makes class c's counter row and sub-norm ladder private to m, copying
// them if a clone may still reference them. Every in-place writer calls it
// before writing a row.
//
//generic:hotpath
func (m *Model) own(c int) {
	if !m.owned[c] {
		m.copyRow(c)
	}
}

// copyRow gives m private copies of class c's rows. It stays out of line so
// the ownership check inlines into the hot writers and the copy does not.
//
//go:noinline
func (m *Model) copyRow(c int) {
	m.classes[c] = m.classes[c].Clone()
	m.subNorm2[c] = append([]int64(nil), m.subNorm2[c]...)
	m.owned[c] = true
}

// ownAll takes ownership of every row, for the whole-model writers.
func (m *Model) ownAll() {
	for c := range m.classes {
		m.own(c)
	}
}

// MutableClass takes ownership of class c's row (see Model) and returns it
// for in-place mutation — the fault layer's class-memory write path. Call
// RefreshAllNorms after mutating.
func (m *Model) MutableClass(c int) hdc.Vec {
	m.own(c)
	return m.classes[c]
}

// D returns the model dimensionality; Classes the class count; BW the
// class-element bit-width.
func (m *Model) D() int       { return m.d }
func (m *Model) Classes() int { return len(m.classes) }
func (m *Model) BW() int      { return m.bw }

// Class exposes class c's hypervector, read-only: the row may be shared with
// clones of this model (see Model), so writing through it could change
// them too. Mutate through AddEncoded/Update/SetClass, or through
// MutableClass, which takes ownership of the row first.
func (m *Model) Class(c int) hdc.Vec { return m.classes[c] }

// Norm2 returns ‖C_c‖².
func (m *Model) Norm2(c int) int64 { return m.norm2[c] }

// SetClass overwrites class c's hypervector with a copy of v, saturated to
// the model's bit-width (see clampToBW), and refreshes its norms — the
// model-loading path of the config port.
func (m *Model) SetClass(c int, v hdc.Vec) {
	if len(v) != m.d {
		panic(fmt.Sprintf("classifier: SetClass length %d, want %d", len(v), m.d))
	}
	m.own(c)
	copy(m.classes[c], v)
	clampToBW(m.classes[c], m.bw)
	m.refreshNorms(c)
}

// clampToBW clamps v to the elements a bw-bit class memory holds: the signed
// range of bw bits, or [−1, 1] at bw = 1, whose bipolar cells are ±1
// (Quantize(1)) or 0 (a masked dimension). Every class writer leaves its
// rows in that range, and scoring relies on it: at bw ≤ 16 the elements fit
// the 16-bit lanes of hdc.Query.
func clampToBW(v hdc.Vec, bw int) {
	if bw > 1 {
		v.Saturate(bw)
		return
	}
	for i, x := range v {
		v[i] = max(-1, min(1, x))
	}
}

// AddEncoded bundles an encoded hypervector into class c (training
// initialization, Fig. 1a) and refreshes that class's norms, in one fused
// pass over the class vector.
//
//generic:hotpath
func (m *Model) AddEncoded(h hdc.Vec, c int) {
	m.own(c)
	m.norm2[c] = m.classes[c].AddSatNorms(h, m.bw, SubNormGranularity, m.subNorm2[c])
}

// Update applies the retraining rule for a query encoded as h that was
// predicted as class wrong but belongs to class correct (Fig. 1c). Each
// class is updated by one fused accumulate-saturate-renorm sweep instead of
// the historical Sub/Add + Saturate + norm-recompute sequence (six full
// class-vector passes); results are bit-identical. Only the two touched
// rows are copied when shared with a clone.
//
//generic:hotpath
func (m *Model) Update(h hdc.Vec, correct, wrong int) {
	m.own(wrong)
	m.own(correct)
	m.norm2[wrong] = m.classes[wrong].SubSatNorms(h, m.bw, SubNormGranularity, m.subNorm2[wrong])
	m.norm2[correct] = m.classes[correct].AddSatNorms(h, m.bw, SubNormGranularity, m.subNorm2[correct])
}

// refreshNorms recomputes norm2 and the sub-norm ladder for class c.
//
//generic:hotpath
func (m *Model) refreshNorms(c int) {
	m.own(c)
	v := m.classes[c]
	var acc int64
	sub := m.subNorm2[c]
	for k := range sub {
		acc += v[k*SubNormGranularity : (k+1)*SubNormGranularity].Norm2()
		sub[k] = acc
	}
	m.norm2[c] = acc
}

// RefreshAllNorms recomputes the norm bookkeeping for every class. Call it
// after mutating class vectors externally (quantization, fault injection).
func (m *Model) RefreshAllNorms() {
	for c := range m.classes {
		m.refreshNorms(c)
	}
}

// PredictDimsMargin returns the class with the highest modified-cosine
// score for the encoded query h, that score, and the normalized top-2
// confidence margin in [0,1] (score gap over combined score magnitude — the
// quality signal the scoring loop computes for free).
//
// Only the first dims dimensions are scored, rounded down to the sub-norm
// granularity (minimum one chunk) and clamped to D: dims = m.D() is the
// full-model score, fewer models on-demand dimension reduction. When
// updatedNorms is true the per-chunk sub-norms are used (the paper's fix);
// when false the full-model norms are used (the "Constant" curves of
// Fig. 5, which lose up to 20% accuracy).
//
// The loop tracks the two highest scores; ties keep the lower class index,
// so the winner is the single-best loop's. The scored prefix of h is read
// once as an hdc.Query, which picks the dot kernel for the model's
// bit-width. Like every per-sample kernel here it records nothing: the
// Pipeline observes served predicts.
//
//generic:hotpath
func (m *Model) PredictDimsMargin(h hdc.Vec, dims int, updatedNorms bool) (class int, score, margin float64) {
	if dims > m.d {
		dims = m.d
	}
	chunks := dims / SubNormGranularity
	if chunks < 1 {
		chunks = 1
	}
	dims = chunks * SubNormGranularity
	if len(h) < dims {
		panic(fmt.Sprintf("classifier: query length %d shorter than the %d scored dimensions", len(h), dims))
	}
	q := hdc.NewQuery(h[:dims], m.bw)
	best, s1, s2 := 0, -1e308, -1e308
	for c, cv := range m.classes {
		dot := q.Dot(cv)
		var n2 int64
		if updatedNorms {
			n2 = m.subNorm2[c][chunks-1]
		} else {
			n2 = m.norm2[c]
		}
		s := hdc.CosineScore(dot, n2)
		if s > s1 {
			best, s1, s2 = c, s, s1
		} else if s > s2 {
			s2 = s
		}
	}
	return best, s1, normMargin(s1, s2)
}

// normMargin normalizes a top-2 score gap to [0,1]: the gap over the
// combined score magnitude. Degenerate cases (non-positive gap, zero
// magnitude, single-class models) collapse to zero — "no confidence".
//
//generic:hotpath
func normMargin(s1, s2 float64) float64 {
	num := s1 - s2
	den := math.Abs(s1) + math.Abs(s2)
	if num <= 0 || den <= 0 || num != num || den != den {
		return 0
	}
	m := num / den
	if m > 1 {
		m = 1
	}
	return m
}

// Quantize rescales every class vector to bw-bit precision (bw ≤ 16) and
// refreshes norms, modeling loading a quantized model into the accelerator
// whose mask unit masks out unused bits. bw=1 produces a bipolar ±1 model.
func (m *Model) Quantize(bw int) {
	if bw < 1 || bw > 16 {
		panic(fmt.Sprintf("classifier: Quantize bw=%d out of range [1,16]", bw))
	}
	m.ownAll()
	if bw == 1 {
		for _, cv := range m.classes {
			for i, v := range cv {
				if v >= 0 {
					cv[i] = 1
				} else {
					cv[i] = -1
				}
			}
		}
	} else {
		// Scale by a percentile of |value| rather than the maximum:
		// class-element distributions are heavy-tailed, and letting a few
		// outliers set the step size would flush most elements to zero at
		// low widths. The percentile adapts to the width — a bw-bit grid
		// has 2^(bw−1) positive levels, so the scale is placed where all
		// levels stay populated (50th percentile at 2 bits up to ~99th at
		// 8+); values beyond it saturate (QuantizeTo clamps).
		mags := make([]int32, 0, len(m.classes)*m.d)
		for _, cv := range m.classes {
			for _, v := range cv {
				if v < 0 {
					v = -v
				}
				mags = append(mags, v)
			}
		}
		sort.Slice(mags, func(i, j int) bool { return mags[i] < mags[j] })
		pct := 1 - 1/float64(int32(1)<<uint(bw-1))
		idx := int(pct * float64(len(mags)))
		if idx >= len(mags) {
			idx = len(mags) - 1
		}
		scale := mags[idx]
		if scale == 0 {
			scale = 1
		}
		for _, cv := range m.classes {
			cv.QuantizeTo(bw, scale)
		}
	}
	m.bw = bw
	m.RefreshAllNorms()
}

// Adapt performs one online-learning step on an encoded sample: predict,
// and on misprediction apply the retraining rule. It returns the prediction
// made before any update and whether an update occurred. It is the
// perceptron epoch's per-sample step, and the streaming path of the paper's
// IoT-gateway scenario: the model keeps improving from labelled feedback
// without a batch retraining pass.
//
//generic:hotpath
func (m *Model) Adapt(h hdc.Vec, label int) (pred int, updated bool) {
	pred, _, _ = m.PredictDimsMargin(h, m.d, true)
	if pred != label {
		m.Update(h, label, pred)
		updated = true
	}
	return pred, updated
}

// Clone returns an independent model in O(classes): the row references are
// copied and the rows shared copy-on-write (see Model), so a later write to
// either model copies just the rows it touches. Clone marks the receiver's
// rows shared too — it writes ownership bookkeeping that scoring never
// reads, so it may run beside concurrent predicts, but not beside another
// writer or Clone of the same model.
func (m *Model) Clone() *Model {
	c := &Model{
		d:        m.d,
		bw:       m.bw,
		classes:  append([]hdc.Vec(nil), m.classes...),
		norm2:    append([]int64(nil), m.norm2...),
		subNorm2: append([][]int64(nil), m.subNorm2...),
		owned:    make([]bool, len(m.classes)),
	}
	clear(m.owned)
	return c
}

// PredictDimsBatch classifies every encoded query on its first dims
// dimensions (see PredictDimsMargin) across workers workers (<= 0 means
// GOMAXPROCS, 1 is serial) and returns the predictions in input order.
// Scoring only reads the model, so any worker count yields identical
// results; the model must not be mutated concurrently.
func (m *Model) PredictDimsBatch(encoded []hdc.Vec, dims int, updatedNorms bool, workers int) []int {
	out := make([]int, len(encoded))
	parallel.For(workers, len(encoded), func(_, i int) {
		out[i], _, _ = m.PredictDimsMargin(encoded[i], dims, updatedNorms)
	})
	return out
}

// EvaluateDimsBatch returns the fraction of encoded queries whose
// prediction on the first dims dimensions (see PredictDimsMargin) matches
// labels; dims = m.D() scores the full model. Scoring fans across workers
// workers (<= 0 means GOMAXPROCS, 1 is serial) and is bit-identical for
// every worker count.
func EvaluateDimsBatch(m *Model, encoded []hdc.Vec, labels []int, dims int, updatedNorms bool, workers int) float64 {
	return accuracy(len(encoded), labels, workers, func(i int) int {
		c, _, _ := m.PredictDimsMargin(encoded[i], dims, updatedNorms)
		return c
	})
}

// accuracy returns the fraction of the n queries for which predict(i)
// equals labels[i]. Each worker counts its own contiguous chunk and the
// counts are summed, so the result is the same for every worker count.
func accuracy(n int, labels []int, workers int, predict func(i int) int) float64 {
	if n == 0 {
		return 0
	}
	w := parallel.Workers(workers)
	counts := make([]int, w)
	parallel.ForChunks(w, n, func(worker, lo, hi int) {
		correct := 0
		for i := lo; i < hi; i++ {
			if predict(i) == labels[i] {
				correct++
			}
		}
		counts[worker] = correct
	})
	correct := 0
	for _, c := range counts {
		correct += c
	}
	return float64(correct) / float64(n)
}
