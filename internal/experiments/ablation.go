package experiments

import (
	"fmt"
	"strings"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/metrics"
)

// This file implements ablation studies for the design choices the paper
// fixes by experiment but does not tabulate:
//
//   - §3.1: "We use n=3 as it achieved the highest accuracy (on average)
//     for our examined benchmarks" — AblationWindow sweeps n.
//   - §3.1/Eq. 1: per-window id binding restores global order —
//     AblationID removes it everywhere and shows which benchmarks break.
//   - §2.2/§5.1: 64 level bins ("using more levels does not considerably
//     affect the area or power") — AblationBins sweeps the bin count and
//     shows accuracy saturates.

// AblationDatasets is the benchmark subset used for ablations: one of each
// structural family, so every effect has a witness.
var AblationDatasets = []string{"EEG", "LANG", "MNIST", "ISOLET", "PAGE"}

// ablationEval trains a GENERIC-encoded model with the given overrides and
// returns test accuracy.
func ablationEval(ds *dataset.Dataset, cfg Config, n, bins int, useID bool) (float64, error) {
	if n > ds.Features {
		n = ds.Features
	}
	enc, err := encoding.New(encoding.Generic, encoding.Config{
		D: cfg.D, Features: ds.Features, Bins: bins, Lo: ds.Lo, Hi: ds.Hi,
		N: n, UseID: useID, Seed: cfg.Seed,
	})
	if err != nil {
		return 0, err
	}
	m, testH, err := encodeAndTrain(enc, ds, cfg)
	if err != nil {
		return 0, err
	}
	return classifier.EvaluateDimsBatch(m, testH, ds.TestY, m.D(), true, cfg.Workers), nil
}

// AblationWindowResult sweeps the window length n.
type AblationWindowResult struct {
	Ns       []int
	Datasets []string
	// Acc[dataset][nIndex]
	Acc map[string][]float64
	// MeanByN[nIndex] is the cross-benchmark mean accuracy.
	MeanByN []float64
}

// AblationWindow sweeps n ∈ {2,3,4,5} with the per-dataset id policy.
func AblationWindow(cfg Config) (*AblationWindowResult, error) {
	cfg = cfg.normalized()
	res := &AblationWindowResult{
		Ns:       []int{2, 3, 4, 5},
		Datasets: AblationDatasets,
		Acc:      map[string][]float64{},
	}
	accs := make([][]float64, len(res.Datasets))
	err := cfg.fanOut(len(res.Datasets), func(i int) error {
		ds, err := dataset.Load(res.Datasets[i], cfg.Seed)
		if err != nil {
			return err
		}
		for _, n := range res.Ns {
			acc, err := ablationEval(ds, cfg, n, 64, ds.UseID)
			if err != nil {
				return err
			}
			accs[i] = append(accs[i], acc)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range res.Datasets {
		res.Acc[name] = accs[i]
	}
	for i := range res.Ns {
		var col []float64
		for _, name := range res.Datasets {
			col = append(col, res.Acc[name][i])
		}
		res.MeanByN = append(res.MeanByN, metrics.Mean(col))
	}
	return res, nil
}

// BestN returns the window length with the highest mean accuracy.
func (r *AblationWindowResult) BestN() int {
	best, bestAcc := r.Ns[0], -1.0
	for i, n := range r.Ns {
		if r.MeanByN[i] > bestAcc {
			best, bestAcc = n, r.MeanByN[i]
		}
	}
	return best
}

func (r *AblationWindowResult) String() string {
	t := &table{header: []string{"Dataset"}}
	for _, n := range r.Ns {
		t.header = append(t.header, fmt.Sprintf("n=%d", n))
	}
	for _, name := range r.Datasets {
		row := []string{name}
		for _, a := range r.Acc[name] {
			row = append(row, fmtPct(a))
		}
		t.addRow(row...)
	}
	mean := []string{"Mean"}
	for _, a := range r.MeanByN {
		mean = append(mean, fmtPct(a))
	}
	t.addRow(mean...)
	return fmt.Sprintf("Ablation: GENERIC window length (paper picks n=3; best here n=%d)\n%s",
		r.BestN(), t.String())
}

// AblationIDResult compares GENERIC with and without per-window id binding
// on every ablation benchmark.
type AblationIDResult struct {
	Datasets  []string
	WithID    []float64
	WithoutID []float64
}

// AblationID forces ids on and off regardless of the per-dataset policy.
func AblationID(cfg Config) (*AblationIDResult, error) {
	cfg = cfg.normalized()
	res := &AblationIDResult{
		Datasets:  AblationDatasets,
		WithID:    make([]float64, len(AblationDatasets)),
		WithoutID: make([]float64, len(AblationDatasets)),
	}
	err := cfg.fanOut(len(res.Datasets), func(i int) error {
		ds, err := dataset.Load(res.Datasets[i], cfg.Seed)
		if err != nil {
			return err
		}
		if res.WithID[i], err = ablationEval(ds, cfg, 3, 64, true); err != nil {
			return err
		}
		if res.WithoutID[i], err = ablationEval(ds, cfg, 3, 64, false); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Acc returns (withID, withoutID) for a dataset.
func (r *AblationIDResult) AccFor(name string) (on, off float64, ok bool) {
	for i, d := range r.Datasets {
		if d == name {
			return r.WithID[i], r.WithoutID[i], true
		}
	}
	return 0, 0, false
}

func (r *AblationIDResult) String() string {
	t := &table{header: []string{"Dataset", "with id", "without id", "Δ"}}
	for i, name := range r.Datasets {
		t.addRow(name, fmtPct(r.WithID[i]), fmtPct(r.WithoutID[i]),
			fmt.Sprintf("%+.1f", 100*(r.WithID[i]-r.WithoutID[i])))
	}
	return "Ablation: per-window id binding (Eq. 1's global-order term)\n" + t.String()
}

// AblationBinsResult sweeps the level-hypervector bin count.
type AblationBinsResult struct {
	Bins     []int
	Datasets []string
	Acc      map[string][]float64
	MeanBy   []float64
}

// AblationBins sweeps the quantization bins ∈ {4,16,64}.
func AblationBins(cfg Config) (*AblationBinsResult, error) {
	cfg = cfg.normalized()
	res := &AblationBinsResult{
		Bins:     []int{4, 16, 64},
		Datasets: AblationDatasets,
		Acc:      map[string][]float64{},
	}
	accs := make([][]float64, len(res.Datasets))
	err := cfg.fanOut(len(res.Datasets), func(i int) error {
		ds, err := dataset.Load(res.Datasets[i], cfg.Seed)
		if err != nil {
			return err
		}
		for _, bins := range res.Bins {
			acc, err := ablationEval(ds, cfg, 3, bins, ds.UseID)
			if err != nil {
				return err
			}
			accs[i] = append(accs[i], acc)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range res.Datasets {
		res.Acc[name] = accs[i]
	}
	for i := range res.Bins {
		var col []float64
		for _, name := range res.Datasets {
			col = append(col, res.Acc[name][i])
		}
		res.MeanBy = append(res.MeanBy, metrics.Mean(col))
	}
	return res, nil
}

func (r *AblationBinsResult) String() string {
	t := &table{header: []string{"Dataset"}}
	for _, b := range r.Bins {
		t.header = append(t.header, fmt.Sprintf("%d bins", b))
	}
	for _, name := range r.Datasets {
		row := []string{name}
		for _, a := range r.Acc[name] {
			row = append(row, fmtPct(a))
		}
		t.addRow(row...)
	}
	mean := []string{"Mean"}
	for _, a := range r.MeanBy {
		mean = append(mean, fmtPct(a))
	}
	t.addRow(mean...)
	var b strings.Builder
	b.WriteString("Ablation: level quantization bins (paper uses 64)\n")
	b.WriteString(t.String())
	return b.String()
}
