package experiments

import (
	"fmt"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/metrics"
)

// TrainersRow compares the training strategies on one benchmark at equal
// dimensionality: same encoder, same encoded set, same epoch budget — only
// the Trainer differs.
type TrainersRow struct {
	Dataset string
	// D is the hypervector dimensionality both strategies trained at.
	D int
	// Perceptron / LeHDC are test accuracies; the *Epochs fields report how
	// many epochs each strategy actually ran (early convergence stops both).
	Perceptron       float64
	PerceptronEpochs int
	LeHDC            float64
	LeHDCEpochs      int
}

// Delta is the LeHDC accuracy gain over the perceptron baseline.
func (r TrainersRow) Delta() float64 { return r.LeHDC - r.Perceptron }

// TrainersResult is the strategy comparison over every benchmark.
type TrainersResult struct {
	Rows []TrainersRow
	// MeanPerceptron / MeanLeHDC average the accuracy columns.
	MeanPerceptron, MeanLeHDC float64
	// Wins counts benchmarks where LeHDC strictly beats the perceptron.
	Wins int
}

// trainersD picks the comparison dimensionality: the strategies separate in
// the compact-model regime (at the paper's D=4096 both sit at the accuracy
// ceiling on most benchmarks), so the sweep runs at an eighth of the
// configured D, floored at the sub-norm granularity.
func trainersD(cfg Config) int {
	d := cfg.D / 8
	if d < classifier.SubNormGranularity {
		d = classifier.SubNormGranularity
	}
	return d - d%classifier.SubNormGranularity
}

// Trainers compares the perceptron and LeHDC training strategies on the
// eleven benchmarks with the GENERIC encoding at equal (compact)
// dimensionality — the Table 1 protocol with the trainer as the only
// variable.
func Trainers(cfg Config) (*TrainersResult, error) {
	cfg = cfg.normalized()
	names := dataset.Names()
	rows := make([]TrainersRow, len(names))
	err := cfg.fanOut(len(names), func(i int) error {
		row, err := trainersDataset(names[i], cfg)
		if err != nil {
			return fmt.Errorf("trainers: %s: %w", names[i], err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &TrainersResult{Rows: rows}
	var accP, accL []float64
	for _, r := range rows {
		accP = append(accP, r.Perceptron)
		accL = append(accL, r.LeHDC)
		if r.LeHDC > r.Perceptron {
			res.Wins++
		}
	}
	res.MeanPerceptron, res.MeanLeHDC = metrics.Mean(accP), metrics.Mean(accL)
	return res, nil
}

// TrainersDataset runs a single benchmark's strategy-comparison row.
func TrainersDataset(name string, cfg Config) (TrainersRow, error) {
	return trainersDataset(name, cfg.normalized())
}

func trainersDataset(name string, cfg Config) (TrainersRow, error) {
	ds, err := dataset.Load(name, cfg.Seed)
	if err != nil {
		return TrainersRow{}, err
	}
	d := trainersD(cfg)
	enc, err := encoding.New(encoding.Generic, dataset.EncoderConfig(ds, d, cfg.Seed))
	if err != nil {
		return TrainersRow{}, err
	}
	trainH := encoding.EncodeAllWorkers(enc, ds.TrainX, cfg.Workers)
	testH := encoding.EncodeAllWorkers(enc, ds.TestX, cfg.Workers)
	row := TrainersRow{Dataset: name, D: d}
	for _, trainer := range []string{"perceptron", "lehdc"} {
		m, res, err := classifier.Train(trainH, ds.TrainY, ds.Classes, classifier.Options{
			Epochs: cfg.Epochs, Seed: cfg.Seed, Workers: cfg.Workers, Trainer: trainer,
		}, nil)
		if err != nil {
			return row, err
		}
		acc := classifier.EvaluateDimsBatch(m, testH, ds.TestY, m.D(), true, cfg.Workers)
		switch trainer {
		case "perceptron":
			row.Perceptron, row.PerceptronEpochs = acc, res.EpochsRun
		case "lehdc":
			row.LeHDC, row.LeHDCEpochs = acc, res.EpochsRun
		}
	}
	return row, nil
}

// String renders the comparison as a paper-style table.
func (r *TrainersResult) String() string {
	t := &table{header: []string{
		"Dataset", "D", "perceptron", "ep", "lehdc", "ep", "delta",
	}}
	for _, row := range r.Rows {
		t.addRow(row.Dataset, fmt.Sprintf("%d", row.D),
			fmtPct(row.Perceptron), fmt.Sprintf("%d", row.PerceptronEpochs),
			fmtPct(row.LeHDC), fmt.Sprintf("%d", row.LeHDCEpochs),
			fmt.Sprintf("%+5.1f", 100*row.Delta()))
	}
	t.addRow("Mean", "", fmtPct(r.MeanPerceptron), "", fmtPct(r.MeanLeHDC), "", fmt.Sprintf("%+5.1f", 100*(r.MeanLeHDC-r.MeanPerceptron)))
	return fmt.Sprintf("Training strategies: accuracy at compact D (GENERIC encoding, lehdc wins %d/%d)\n%s",
		r.Wins, len(r.Rows), t.String())
}
