package experiments

import (
	"fmt"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/metrics"
	"github.com/edge-hdc/generic/internal/ml"
)

// Table1Row holds one benchmark's test accuracies across all algorithms
// (paper Table 1 columns).
type Table1Row struct {
	Dataset string
	// HDC encodings, in the paper's column order.
	RP, LevelID, Ngram, Permute, Generic float64
	// Classical ML baselines.
	MLP, SVM, RF, DNN float64
}

// Table1Result is the full accuracy comparison plus the summary rows.
type Table1Result struct {
	Rows []Table1Row
	Mean Table1Row
	Std  Table1Row
}

// Table1 reproduces the paper's Table 1: the accuracy of the five HDC
// encodings and four classical baselines on the eleven benchmarks.
func Table1(cfg Config) (*Table1Result, error) {
	cfg = cfg.normalized()
	names := dataset.Names()
	rows := make([]Table1Row, len(names))
	err := cfg.fanOut(len(names), func(i int) error {
		row, err := table1Dataset(names[i], cfg)
		if err != nil {
			return fmt.Errorf("table1: %s: %w", names[i], err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Table1Result{Rows: rows}
	res.summarize()
	return res, nil
}

func table1Dataset(name string, cfg Config) (Table1Row, error) {
	ds, err := dataset.Load(name, cfg.Seed)
	if err != nil {
		return Table1Row{}, err
	}
	row := Table1Row{Dataset: name}

	// HDC encodings.
	hdcAcc := func(kind encoding.Kind) (float64, error) {
		enc, err := encoding.New(kind, dataset.EncoderConfig(ds, cfg.D, cfg.Seed+uint64(kind)*7919))
		if err != nil {
			return 0, err
		}
		m, testH, err := encodeAndTrain(enc, ds, cfg)
		if err != nil {
			return 0, err
		}
		return classifier.EvaluateDimsBatch(m, testH, ds.TestY, m.D(), true, cfg.Workers), nil
	}
	if row.RP, err = hdcAcc(encoding.RP); err != nil {
		return row, err
	}
	if row.LevelID, err = hdcAcc(encoding.LevelID); err != nil {
		return row, err
	}
	if row.Ngram, err = hdcAcc(encoding.Ngram); err != nil {
		return row, err
	}
	if row.Permute, err = hdcAcc(encoding.Permute); err != nil {
		return row, err
	}
	if row.Generic, err = hdcAcc(encoding.Generic); err != nil {
		return row, err
	}

	// Classical baselines on standardized features.
	trainX, testX := ds.Normalized()
	evalML := func(c ml.Classifier) float64 {
		return metrics.MustAccuracy(ml.PredictAll(c, testX), ds.TestY)
	}
	mlp, dnn, trees := ml.MLPBaseline, ml.DNNBaseline, 100
	mlp.Seed, dnn.Seed = cfg.Seed, cfg.Seed
	if cfg.Quick {
		mlp.Epochs, dnn.Epochs, dnn.Hidden, trees = 10, 12, []int{64, 32}, 25
	}
	row.MLP = evalML(ml.FitMLP(trainX, ds.TrainY, ds.Classes, mlp))
	row.SVM = evalML(ml.FitLinear(trainX, ds.TrainY, ds.Classes, ml.LinearConfig{
		Kind: ml.HingeSVM, Seed: cfg.Seed,
	}))
	row.RF = evalML(ml.FitForest(trainX, ds.TrainY, ds.Classes, ml.ForestConfig{
		Trees: trees, Seed: cfg.Seed,
	}))
	row.DNN = evalML(ml.FitMLP(trainX, ds.TrainY, ds.Classes, dnn))
	return row, nil
}

func (r *Table1Result) summarize() {
	n := float64(len(r.Rows))
	if n == 0 {
		return
	}
	cols := func(get func(Table1Row) float64) (mean, std float64) {
		xs := make([]float64, len(r.Rows))
		for i, row := range r.Rows {
			xs[i] = get(row)
		}
		return metrics.Mean(xs), metrics.StdDev(xs)
	}
	r.Mean.Dataset, r.Std.Dataset = "Mean", "STDV"
	r.Mean.RP, r.Std.RP = cols(func(x Table1Row) float64 { return x.RP })
	r.Mean.LevelID, r.Std.LevelID = cols(func(x Table1Row) float64 { return x.LevelID })
	r.Mean.Ngram, r.Std.Ngram = cols(func(x Table1Row) float64 { return x.Ngram })
	r.Mean.Permute, r.Std.Permute = cols(func(x Table1Row) float64 { return x.Permute })
	r.Mean.Generic, r.Std.Generic = cols(func(x Table1Row) float64 { return x.Generic })
	r.Mean.MLP, r.Std.MLP = cols(func(x Table1Row) float64 { return x.MLP })
	r.Mean.SVM, r.Std.SVM = cols(func(x Table1Row) float64 { return x.SVM })
	r.Mean.RF, r.Std.RF = cols(func(x Table1Row) float64 { return x.RF })
	r.Mean.DNN, r.Std.DNN = cols(func(x Table1Row) float64 { return x.DNN })
}

// String renders the result in the paper's layout.
func (r *Table1Result) String() string {
	t := &table{header: []string{
		"Dataset", "RP", "level-id", "ngram", "permute", "GENERIC",
		"MLP", "SVM", "RF", "DNN",
	}}
	add := func(row Table1Row) {
		t.addRow(row.Dataset,
			fmtPct(row.RP), fmtPct(row.LevelID), fmtPct(row.Ngram),
			fmtPct(row.Permute), fmtPct(row.Generic),
			fmtPct(row.MLP), fmtPct(row.SVM), fmtPct(row.RF), fmtPct(row.DNN))
	}
	for _, row := range r.Rows {
		add(row)
	}
	add(r.Mean)
	add(r.Std)
	return "Table 1: Accuracy of HDC and ML algorithms\n" + t.String()
}
