package classifier

import (
	"math"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/perf"
	"github.com/edge-hdc/generic/internal/rng"
)

// lehdcTemp is the softmax temperature (inverse): logits are cosine-scaled
// dot products in roughly [-1, 1], and multiplying by this sharpens them
// into a useful cross-entropy regime. Fixed rather than an Option — it
// trades off against LR, and one free scale knob is enough.
const lehdcTemp = 8.0

// lehdcMomentum is the SGD velocity coefficient.
const lehdcMomentum = 0.9

// trainLeHDC trains the class hypervectors as a learned linear classifier
// (LeHDC: "Learning-Based Hyperdimensional Computing Classifier", DAC'22 —
// see PAPERS.md): float32 shadow weights are initialized from the one-shot
// bundled model and refined by mini-batch softmax/cross-entropy gradient
// descent with per-epoch learning-rate decay, then quantized back to the
// accelerator's bw-saturated int representation. The deployed artifact is a
// plain *Model — scoring, Quantize, fault injection, and modelio consume it
// unmodified, and the paper's bw-programmable class memory loads it
// unchanged.
//
// Geometry: each sample is used L2-normalized (x = h/‖h‖, applied as a
// per-sample scale, never materialized), so logits start as lehdcTemp·cosine
// similarities against the unit-normalized bundled classes. Compared with
// the perceptron rule, the softmax loss moves every class vector on every
// sample — weighted by how wrong its probability is — instead of only the
// confused pair, which is what closes the accuracy gap at equal D.
//
// Determinism: the initialization bundling reuses bundleClasses (worker-fanned,
// order-independent integer sums); everything after it — shuffling, logits,
// gradient accumulation, weight updates — runs sequentially in shuffle
// order, so the model is bit-identical for every Options.Workers value.
func trainLeHDC(set hdc.Set, labels []int, nC int, opt Options, sp *perf.Span) (*Model, TrainResult) {
	m := bundleClasses(set, labels, nC, opt, sp)
	d := m.d
	scratch := set.Scratch()

	// Shadow weights: unit-normalized float32 copies of the bundled classes —
	// the warm start LeHDC prescribes (a random init wastes the one-shot
	// model's head start).
	W := make([][]float32, nC)
	for c := 0; c < nC; c++ {
		W[c] = make([]float32, d)
		inv := 1.0
		if n2 := m.norm2[c]; n2 > 0 {
			inv = 1 / math.Sqrt(float64(n2))
		}
		for j, v := range m.classes[c] {
			W[c][j] = float32(float64(v) * inv)
		}
	}
	// Per-sample inverse norms, applied as logit/gradient scales.
	invNorm := make([]float64, set.Len())
	for i := range invNorm {
		if n2 := set.Widen(i, scratch).Norm2(); n2 > 0 {
			invNorm[i] = 1 / math.Sqrt(float64(n2))
		}
	}

	r := rng.New(opt.Seed)
	order := make([]int, set.Len())
	for i := range order {
		order[i] = i
	}
	grad := make([][]float32, nC)
	vel := make([][]float32, nC)
	for c := range grad {
		grad[c] = make([]float32, d)
		vel[c] = make([]float32, d)
	}
	z := make([]float64, nC)
	probs := make([]float64, nC)

	lr := opt.LR
	res := TrainResult{Trainer: "lehdc"}
	for e := 0; e < opt.Epochs; e++ {
		epochSpan := sp.Child("fit.epoch.lehdc")
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lossSum := 0.0
		wrong := 0
		for lo := 0; lo < len(order); lo += opt.BatchSize {
			hi := lo + opt.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			for c := range grad {
				clear(grad[c])
			}
			for _, i := range order[lo:hi] {
				h, y := set.Widen(i, scratch), labels[i]
				scale := lehdcTemp * invNorm[i]
				best := 0
				for c := 0; c < nC; c++ {
					var acc float64
					wc := W[c]
					for j, x := range h {
						acc += float64(wc[j]) * float64(x)
					}
					z[c] = acc * scale
					if z[c] > z[best] {
						best = c
					}
				}
				if best != y {
					wrong++
				}
				// Stable softmax and cross-entropy against label y.
				var sum float64
				for c := 0; c < nC; c++ {
					probs[c] = math.Exp(z[c] - z[best])
					sum += probs[c]
				}
				lossSum += math.Log(sum) - (z[y] - z[best])
				// dL/dW[c] = (p_c − 1{c=y}) · temp/‖h‖ · h, accumulated over
				// the mini-batch.
				for c := 0; c < nC; c++ {
					g := probs[c] / sum
					if c == y {
						g -= 1
					}
					a := float32(g * scale)
					if a == 0 {
						continue
					}
					gc := grad[c]
					for j, x := range h {
						gc[j] += a * float32(x)
					}
				}
			}
			// Momentum SGD: the near-parallel class geometry (bundled classes
			// share a large common component) makes plain SGD ill-conditioned;
			// the velocity term accumulates the consistent discriminative
			// direction across batches.
			step := float32(lr / float64(hi-lo))
			for c := range W {
				wc, gc, vc := W[c], grad[c], vel[c]
				for j := range wc {
					vc[j] = lehdcMomentum*vc[j] - step*gc[j]
					wc[j] += vc[j]
				}
			}
		}
		loss := lossSum / float64(set.Len())
		res.EpochsRun = e + 1
		res.FinalUpdates = wrong
		res.FinalLoss = loss
		res.Epochs = append(res.Epochs, EpochStat{Epoch: e + 1, Updates: wrong, Loss: loss, LR: lr})
		epochSpan.End()
		lr *= opt.LRDecay
		// No early stop at wrong == 0: unlike the perceptron (for which zero
		// updates is a fixed point), cross-entropy keeps widening margins
		// after the training set is separated, and those margins are what
		// survive quantize-back.
	}

	quantizeShadow(m, W, sp)
	return m, res
}

// quantizeShadow writes the float32 shadow weights back into the model's
// bw-saturated int class memory: every weight is scaled so the largest
// magnitude lands on the top positive bw-bit level, rounded, clamped via
// Saturate, and the norm bookkeeping is rebuilt with RefreshAllNorms. This
// is the quantize-back rule of DESIGN.md §12 — after it the model is
// indistinguishable in kind from a perceptron-trained one.
func quantizeShadow(m *Model, W [][]float32, sp *perf.Span) {
	qSpan := sp.Child("fit.quantize")
	defer qSpan.End()
	var maxAbs float32
	for _, wc := range W {
		for _, w := range wc {
			if w < 0 {
				w = -w
			}
			if w > maxAbs {
				maxAbs = w
			}
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	hi := float64(int32(1)<<uint(m.bw-1) - 1)
	for c, wc := range W {
		cv := m.classes[c]
		for j, w := range wc {
			cv[j] = int32(math.Round(float64(w) / float64(maxAbs) * hi))
		}
		cv.Saturate(m.bw)
	}
	m.RefreshAllNorms()
}
