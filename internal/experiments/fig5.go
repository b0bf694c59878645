package experiments

import (
	"fmt"
	"strings"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
)

// Fig5Point is one (dimensions, accuracy) sample of Figure 5's curves.
type Fig5Point struct {
	Dims         int
	ConstantNorm float64 // accuracy using the full-model L2 norms
	UpdatedNorm  float64 // accuracy using the per-128-dim sub-norms
}

// Fig5Curve is one dataset's dimension-reduction sweep.
type Fig5Curve struct {
	Dataset string
	Points  []Fig5Point
}

// Fig5Result reproduces Figure 5: accuracy under on-demand dimension
// reduction with constant versus updated L2 norms (§4.3.3), on the two
// datasets the paper plots (EEG and ISOLET).
type Fig5Result struct {
	Curves []Fig5Curve
}

// Fig5Datasets lists the benchmarks Figure 5 plots.
var Fig5Datasets = []string{"EEG", "ISOLET"}

// Figure5 trains a full-dimensional GENERIC model per dataset and evaluates
// it at truncated dimensionalities, with and without the sub-norm fix.
func Figure5(cfg Config) (*Fig5Result, error) {
	cfg = cfg.normalized()
	curves := make([]Fig5Curve, len(Fig5Datasets))
	err := cfg.fanOut(len(Fig5Datasets), func(i int) error {
		name := Fig5Datasets[i]
		ds, err := dataset.Load(name, cfg.Seed)
		if err != nil {
			return err
		}
		enc, err := encoding.New(encoding.Generic, dataset.EncoderConfig(ds, cfg.D, cfg.Seed))
		if err != nil {
			return err
		}
		m, testH, err := encodeAndTrain(enc, ds, cfg)
		if err != nil {
			return err
		}
		curve := Fig5Curve{Dataset: name}
		for dims := classifier.SubNormGranularity; dims <= cfg.D; dims *= 2 {
			curve.Points = append(curve.Points, Fig5Point{
				Dims:         dims,
				ConstantNorm: classifier.EvaluateDimsBatch(m, testH, ds.TestY, dims, false, cfg.Workers),
				UpdatedNorm:  classifier.EvaluateDimsBatch(m, testH, ds.TestY, dims, true, cfg.Workers),
			})
		}
		curves[i] = curve
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Curves: curves}, nil
}

// MaxGap returns the largest accuracy gap (updated − constant) across a
// dataset's sweep — the quantity the paper reports as "up to 20.1% for EEG
// and 8.5% for ISOLET".
func (r *Fig5Result) MaxGap(dataset string) float64 {
	for _, c := range r.Curves {
		if c.Dataset != dataset {
			continue
		}
		gap := 0.0
		for _, p := range c.Points {
			if g := p.UpdatedNorm - p.ConstantNorm; g > gap {
				gap = g
			}
		}
		return gap
	}
	return 0
}

// String renders the curves as a table.
func (r *Fig5Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5: accuracy with constant vs updated L2 norms under dimension reduction\n")
	for _, c := range r.Curves {
		t := &table{header: []string{"Dims", c.Dataset + " constant", c.Dataset + " updated"}}
		for _, p := range c.Points {
			t.addRow(fmt.Sprintf("%d", p.Dims), fmtPct(p.ConstantNorm), fmtPct(p.UpdatedNorm))
		}
		b.WriteString(t.String())
		fmt.Fprintf(&b, "max gap: %.1f%%\n\n", 100*r.MaxGap(c.Dataset))
	}
	return b.String()
}
