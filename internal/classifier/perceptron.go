package classifier

import (
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/perf"
	"github.com/edge-hdc/generic/internal/rng"
	"github.com/edge-hdc/generic/internal/telemetry"
)

// PerceptronTrainer is the paper's training strategy (Fig. 1): one-shot
// class bundling followed by opt.Epochs perceptron-style retraining passes —
// Model.Adapt on each shuffled sample, which on misprediction subtracts the
// encoding from the wrong class and adds it to the correct one. The result
// is locked bit-identical to the pre-strategy trainer by the golden test in
// trainer_test.go.
//
// Retraining is sequential by construction — its per-sample update order is
// part of the algorithm — so opt.Workers only fans the initialization
// bundling, and results are bit-identical for every worker count.
type PerceptronTrainer struct{}

// Name implements Trainer.
func (PerceptronTrainer) Name() string { return "perceptron" }

// Train implements Trainer.
func (PerceptronTrainer) Train(encoded []hdc.Vec, labels []int, nC int, opt Options) (*Model, TrainResult) {
	sp := perf.Begin("fit")
	defer sp.End()
	m := bundleClasses(encoded, labels, nC, opt, sp)

	r := rng.New(opt.Seed)
	order := make([]int, len(encoded))
	for i := range order {
		order[i] = i
	}
	res := TrainResult{}
	for e := 0; e < opt.Epochs; e++ {
		epochSpan := sp.Child("fit.epoch")
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		updates := 0
		for _, i := range order {
			if _, updated := m.Adapt(encoded[i], labels[i]); updated {
				updates++
			}
		}
		loss := float64(updates) / float64(len(encoded))
		res.EpochsRun = e + 1
		res.FinalUpdates = updates
		res.FinalLoss = loss
		res.Epochs = append(res.Epochs, EpochStat{Epoch: e + 1, Updates: updates, Loss: loss, LR: 1})
		telemetry.FitUpdates.Add(int64(updates))
		telemetry.FitLossMicro.Set(int64(loss * 1e6))
		epochSpan.End()
		if updates == 0 {
			break
		}
	}
	return m, res
}
