package experiments

import (
	"fmt"
	"strings"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
)

// EpochCurve reproduces the §5.2.1 observation behind the constant
// 20-epoch training budget: "the accuracy of most datasets saturates after
// a few epochs". For each benchmark it trains with increasing retraining
// budgets and records test accuracy.
type EpochCurve struct {
	Epochs   []int
	Datasets []string
	// Acc[dataset][epochIndex]
	Acc map[string][]float64
}

// EpochCurveDatasets is the benchmark subset swept (one per family).
var EpochCurveDatasets = []string{"EEG", "MNIST", "ISOLET", "PAGE"}

// EpochSaturation sweeps the retraining budget.
func EpochSaturation(cfg Config) (*EpochCurve, error) {
	cfg = cfg.normalized()
	res := &EpochCurve{
		Epochs:   []int{1, 2, 5, 10, 20},
		Datasets: EpochCurveDatasets,
		Acc:      map[string][]float64{},
	}
	accs := make([][]float64, len(res.Datasets))
	err := cfg.fanOut(len(res.Datasets), func(i int) error {
		ds, err := dataset.Load(res.Datasets[i], cfg.Seed)
		if err != nil {
			return err
		}
		enc, err := encoding.New(encoding.Generic, dataset.EncoderConfig(ds, cfg.D, cfg.Seed))
		if err != nil {
			return err
		}
		trainH := encoding.EncodeAllWorkers(enc, ds.TrainX, cfg.Workers)
		testH := encoding.EncodeAllWorkers(enc, ds.TestX, cfg.Workers)
		for _, e := range res.Epochs {
			m, _, err := classifier.Train(trainH, ds.TrainY, ds.Classes, classifier.Options{
				Epochs: e, Seed: cfg.Seed, Workers: cfg.Workers,
			}, nil)
			if err != nil {
				return err
			}
			accs[i] = append(accs[i], classifier.EvaluateDimsBatch(m, testH, ds.TestY, m.D(), true, cfg.Workers))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range res.Datasets {
		res.Acc[name] = accs[i]
	}
	return res, nil
}

// SaturationEpoch returns the smallest swept budget whose accuracy is
// within tol of the largest budget's.
func (r *EpochCurve) SaturationEpoch(dataset string, tol float64) int {
	accs := r.Acc[dataset]
	if len(accs) == 0 {
		return 0
	}
	final := accs[len(accs)-1]
	for i, a := range accs {
		if final-a <= tol {
			return r.Epochs[i]
		}
	}
	return r.Epochs[len(r.Epochs)-1]
}

func (r *EpochCurve) String() string {
	t := &table{header: []string{"Dataset"}}
	for _, e := range r.Epochs {
		t.header = append(t.header, fmt.Sprintf("%d ep", e))
	}
	t.header = append(t.header, "saturates by")
	for _, name := range r.Datasets {
		row := []string{name}
		for _, a := range r.Acc[name] {
			row = append(row, fmtPct(a))
		}
		row = append(row, fmt.Sprintf("%d epochs", r.SaturationEpoch(name, 0.01)))
		t.addRow(row...)
	}
	var b strings.Builder
	b.WriteString("Retraining saturation (§5.2.1: accuracy saturates after a few epochs)\n")
	b.WriteString(t.String())
	return b.String()
}
