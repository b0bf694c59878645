package classifier

import (
	"sync/atomic"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/parallel"
	"github.com/edge-hdc/generic/internal/perf"
	"github.com/edge-hdc/generic/internal/rng"
)

// trainPerceptron is the paper's training strategy (Fig. 1): one-shot
// class bundling followed by opt.Epochs perceptron-style retraining passes —
// Model.Adapt on each shuffled sample, which on misprediction subtracts the
// encoding from the wrong class and adds it to the correct one. The result
// is locked bit-identical to the pre-strategy trainer by the golden test in
// trainer_test.go. Its inputs are validated by Train.
//
// The per-sample update order is part of the algorithm, so retraining is
// scored ahead on the opt.Workers workers and applied in serial order (see
// epoch); with the fanned initialization bundling, results are
// bit-identical for every worker count.
func trainPerceptron(set hdc.Set, labels []int, nC int, opt Options, sp *perf.Span) (*Model, TrainResult) {
	m := bundleClasses(set, labels, nC, opt, sp)

	r := rng.New(opt.Seed)
	order := make([]int, set.Len())
	for i := range order {
		order[i] = i
	}
	workers := parallel.Workers(opt.Workers)
	var preds []int
	if workers > 1 {
		preds = make([]int, specMaxBlock)
	}
	scratch := make([]hdc.Vec, workers)
	for w := range scratch {
		scratch[w] = set.Scratch()
	}
	res := TrainResult{Trainer: "perceptron"}
	for e := 0; e < opt.Epochs; e++ {
		epochSpan := sp.Child("fit.epoch")
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		updates := epoch(m, set, labels, order, workers, preds, scratch)
		loss := float64(updates) / float64(set.Len())
		res.EpochsRun = e + 1
		res.FinalUpdates = updates
		res.FinalLoss = loss
		res.Epochs = append(res.Epochs, EpochStat{Epoch: e + 1, Updates: updates, Loss: loss, LR: 1})
		epochSpan.End()
		if updates == 0 {
			break
		}
	}
	return m, res
}

// Speculative retraining. An epoch's updates must land in the order's
// sequence, but a sample that needs no update leaves the model as it was,
// so a run of them can be scored side by side. specRun consecutive samples
// without an update start speculation; a block is at most specMaxBlock
// samples, which the workers claim specGrain at a time as they go free.
const (
	specRun      = 32
	specMaxBlock = 512
	specGrain    = 8
)

// epoch runs one retraining pass over order and returns its update count;
// the model ends exactly as Model.Adapt on each sample in turn leaves it.
// With one worker it is that loop. With more, Adapt runs serially until
// specRun consecutive samples have needed no update; then the next block of
// order is scored on the workers against the frozen model, predictions
// written by index into preds. The first mispredicted sample of the block
// gets Model.Update with the prediction the block computed — what Adapt
// would have done, since no update came before it — and the epoch resumes
// serially right after it. A block is never larger than the clean run
// before it, so the scoring a misprediction wastes never exceeds the clean
// scoring that justified it; blocks double while they come back clean.
//
// Each row is read through set.Widen, into scratch[w] on worker w and into
// scratch[0] on the serial path.
func epoch(m *Model, set hdc.Set, labels, order []int, workers int, preds []int, scratch []hdc.Vec) int {
	updates := 0
	if workers <= 1 {
		for _, i := range order {
			if _, updated := m.Adapt(set.Widen(i, scratch[0]), labels[i]); updated {
				updates++
			}
		}
		return updates
	}
	clean := 0 // consecutive samples since the last update
	for pos := 0; pos < len(order); {
		if clean < specRun {
			i := order[pos]
			pos++
			clean++
			if _, updated := m.Adapt(set.Widen(i, scratch[0]), labels[i]); updated {
				updates++
				clean = 0
			}
			continue
		}
		block := order[pos : pos+min(clean, specMaxBlock, len(order)-pos)]
		var next atomic.Int64 // first sample of the next unclaimed grain
		parallel.ForChunks(workers, workers, func(w, _, _ int) {
			for {
				lo := int(next.Add(specGrain)) - specGrain
				if lo >= len(block) {
					return
				}
				for k := lo; k < min(lo+specGrain, len(block)); k++ {
					preds[k], _, _ = m.PredictDimsMargin(set.Widen(block[k], scratch[w]), m.d, true)
				}
			}
		})
		k := 0
		for k < len(block) && preds[k] == labels[block[k]] {
			k++
		}
		pos += k
		clean += k
		if k < len(block) {
			i := block[k]
			m.Update(set.Widen(i, scratch[0]), labels[i], preds[k])
			updates++
			pos++
			clean = 0
		}
	}
	return updates
}
