package classifier

import (
	"fmt"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/parallel"
	"github.com/edge-hdc/generic/internal/perf"
)

// EpochStat records one training epoch's statistics — the per-epoch view
// that dimension-scoring (DistHD-style) and training dashboards consume.
type EpochStat struct {
	// Epoch is the 1-based epoch index.
	Epoch int
	// Updates counts misclassified training samples this epoch: perceptron
	// misprediction updates, or samples the LeHDC shadow model got wrong.
	Updates int
	// Loss is the epoch's mean training loss: the 0/1 error rate for the
	// perceptron strategy, mean cross-entropy for LeHDC.
	Loss float64
	// LR is the learning rate in effect this epoch (1 for the perceptron
	// rule, whose update has no scale knob).
	LR float64
}

// TrainResult reports how a training run went.
type TrainResult struct {
	// Trainer is the resolved strategy name that produced the model.
	Trainer string
	// EpochsRun is the number of retraining epochs executed — at most
	// opt.Epochs, fewer when the model converges early.
	EpochsRun int
	// FinalUpdates is the number of misprediction updates in the last epoch
	// run (zero means the model converged).
	FinalUpdates int
	// FinalLoss is the last epoch's mean training loss (see EpochStat.Loss).
	FinalLoss float64
	// Epochs holds the per-epoch statistics, one entry per epoch run.
	Epochs []EpochStat
}

// TrainerNames returns the selectable strategy names, sorted.
func TrainerNames() []string { return []string{"lehdc", "perceptron"} }

// Train is the canonical training entry point: it validates the training
// set, then runs the strategy opt.Trainer names — "" or "perceptron" the
// paper's (trainPerceptron), "lehdc" the learned classifier (trainLeHDC) —
// and records it in TrainResult.Trainer. The strategies' spans (fit.init,
// fit.epoch, fit.epoch.lehdc, fit.quantize) are children of sp, which is
// nil when the caller does not trace; Train records nothing else.
//
// Every strategy honors the package's determinism contract — same inputs,
// same Options.Seed ⇒ bit-identical model for every Options.Workers value —
// and leaves the model with refreshed norms, so scoring, Quantize, fault
// injection and modelio consume its output unmodified. Options are checked
// first: a negative Epochs or a BW outside [1, hdc.MaxSatBits] (after zero
// takes its default) is an error.
func Train(encoded []hdc.Vec, labels []int, nC int, opt Options, sp *perf.Span) (*Model, TrainResult, error) {
	return TrainSet(hdc.VecSet(encoded), labels, nC, opt, sp)
}

// TrainSet is Train over an encoded set of either width (see hdc.Set): an
// int8 set trains the bit-identical model its int32 rows would. The
// strategies widen each int8 row into int32 scratch where they read it.
func TrainSet(set hdc.Set, labels []int, nC int, opt Options, sp *perf.Span) (*Model, TrainResult, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, TrainResult{}, err
	}
	if err := validateTraining(set, labels, nC); err != nil {
		return nil, TrainResult{}, err
	}
	switch opt.Trainer {
	case "", "perceptron":
		m, res := trainPerceptron(set, labels, nC, opt, sp)
		return m, res, nil
	case "lehdc":
		m, res := trainLeHDC(set, labels, nC, opt, sp)
		return m, res, nil
	}
	return nil, TrainResult{}, fmt.Errorf("classifier: unknown trainer %q (known: %v)", opt.Trainer, TrainerNames())
}

// validateTraining checks the encoded set's shape upfront — mirroring
// Pipeline.Fit's raw-input validation — so malformed input is an error here
// rather than a panic deep inside a strategy.
func validateTraining(set hdc.Set, labels []int, nC int) error {
	if nC < 2 {
		return fmt.Errorf("classifier: Train: need at least 2 classes, got %d", nC)
	}
	if set.Len() == 0 {
		return fmt.Errorf("classifier: Train: empty training set")
	}
	if set.Len() != len(labels) {
		return fmt.Errorf("classifier: Train: %d encoded samples vs %d labels", set.Len(), len(labels))
	}
	d := set.D()
	if d <= 0 || d%SubNormGranularity != 0 {
		return fmt.Errorf("classifier: Train: D=%d must be a positive multiple of %d", d, SubNormGranularity)
	}
	for i := range set.Len() {
		if h := set.Vec(i); h != nil && len(h) != d {
			return fmt.Errorf("classifier: Train: sample %d has %d dims, want %d", i, len(h), d)
		}
	}
	for i, y := range labels {
		if y < 0 || y >= nC {
			return fmt.Errorf("classifier: Train: label %d at sample %d out of range [0,%d)", y, i, nC)
		}
	}
	return nil
}

// bundleClasses is the shared one-shot initialization (Fig. 1a): per-class
// accumulation of the encoded set, saturation at opt.BW, and a norm refresh.
// The bundling fans across opt.Workers workers with per-worker partial class
// sums merged in worker order — integer accumulation is order-independent,
// so the result is bit-identical to a serial build. Both strategies start
// from this model.
func bundleClasses(set hdc.Set, labels []int, nC int, opt Options, sp *perf.Span) *Model {
	initSpan := sp.Child("fit.init")
	defer initSpan.End()
	m := NewModel(set.D(), nC, opt.BW)
	workers := parallel.Workers(opt.Workers)
	if workers > 1 && set.Len() >= 2*workers {
		d := m.d
		partials := make([][]hdc.Vec, workers)
		parallel.ForChunks(workers, set.Len(), func(w, lo, hi int) {
			sums := make([]hdc.Vec, nC)
			for i := lo; i < hi; i++ {
				c := labels[i]
				if sums[c] == nil {
					sums[c] = hdc.NewVec(d)
				}
				set.AddRow(sums[c], i)
			}
			partials[w] = sums
		})
		for _, sums := range partials {
			for c, s := range sums {
				if s != nil {
					m.classes[c].AddInto(s)
				}
			}
		}
	} else {
		for i := range set.Len() {
			set.AddRow(m.classes[labels[i]], i)
		}
	}
	parallel.For(workers, nC, func(_, c int) {
		m.classes[c].Saturate(m.bw)
		m.refreshNorms(c)
	})
	return m
}
