package experiments

import (
	"fmt"

	"github.com/edge-hdc/generic/internal/cluster"
	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/metrics"
)

// Table2Row compares clustering quality on one benchmark.
type Table2Row struct {
	Dataset string
	KMeans  float64 // NMI of k-means (10 restarts)
	HDC     float64 // NMI of HDC clustering
}

// Table2Result is the clustering comparison of paper Table 2.
type Table2Result struct {
	Rows []Table2Row
	// MeanKMeans − MeanHDC; the paper reports k-means ahead by 0.031.
	MeanGap float64
}

// ClusterEpochs is the HDC clustering epoch budget used throughout.
const ClusterEpochs = 10

// Table2 reproduces the paper's Table 2: normalized mutual information of
// k-means versus HDC clustering on the FCPS benchmarks and Iris.
func Table2(cfg Config) (*Table2Result, error) {
	cfg = cfg.normalized()
	names := dataset.ClusterNames()
	rows := make([]Table2Row, len(names))
	err := cfg.fanOut(len(names), func(i int) error {
		name := names[i]
		cs, err := dataset.LoadCluster(name, cfg.Seed)
		if err != nil {
			return err
		}
		kres := cluster.KMeansBest(cs.X, cs.K, 100, 10, cfg.Seed)
		kNMI := metrics.NMI(kres.Assignments, cs.Labels)

		n := 3
		if cs.Features < n {
			n = cs.Features
		}
		enc, err := encoding.New(encoding.Generic, encoding.Config{
			D: cfg.D, Features: cs.Features, Bins: 32, Lo: cs.Lo, Hi: cs.Hi,
			N: n, UseID: true, Seed: cfg.Seed,
		})
		if err != nil {
			return fmt.Errorf("table2: %s: %w", name, err)
		}
		encoded := encoding.EncodeAllWorkers(enc, cs.X, cfg.Workers)
		hres := cluster.HDC(encoded, cs.K, ClusterEpochs, cfg.Workers)
		rows[i] = Table2Row{
			Dataset: name, KMeans: kNMI,
			HDC: metrics.NMI(hres.Assignments, cs.Labels),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Table2Result{Rows: rows}
	var km, hd []float64
	for _, row := range rows {
		km = append(km, row.KMeans)
		hd = append(hd, row.HDC)
	}
	res.MeanGap = metrics.Mean(km) - metrics.Mean(hd)
	return res, nil
}

// String renders the result in the paper's layout.
func (r *Table2Result) String() string {
	t := &table{header: []string{"Method"}}
	for _, row := range r.Rows {
		t.header = append(t.header, row.Dataset)
	}
	km := []string{"K-means"}
	hd := []string{"HDC"}
	for _, row := range r.Rows {
		km = append(km, fmt.Sprintf("%.3f", row.KMeans))
		hd = append(hd, fmt.Sprintf("%.3f", row.HDC))
	}
	t.addRow(km...)
	t.addRow(hd...)
	return fmt.Sprintf("Table 2: Mutual information score of K-means and HDC (mean gap %.3f)\n%s",
		r.MeanGap, t.String())
}
