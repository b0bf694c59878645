package experiments

import (
	"fmt"
	"strings"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/faults"
	"github.com/edge-hdc/generic/internal/power"
	"github.com/edge-hdc/generic/internal/rng"
)

// Fig6BitWidths are the class-memory bit-widths Figure 6 sweeps.
var Fig6BitWidths = []int{8, 4, 2, 1}

// Fig6BERs are the injected bit-error rates (0–10%, as in the figure).
var Fig6BERs = []float64{0, 0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10}

// Fig6Datasets lists the benchmarks the paper plots (ISOLET and FACE).
var Fig6Datasets = []string{"ISOLET", "FACE"}

// Fig6Point is accuracy at one (bw, BER) cell plus the corresponding
// voltage-over-scaling power factors.
type Fig6Point struct {
	BER          float64
	Accuracy     map[int]float64 // keyed by bit-width
	StaticSaving float64         // 1/StaticFactor, the figure's right axis
	DynSaving    float64
}

// Fig6Curve is one dataset's fault-injection sweep.
type Fig6Curve struct {
	Dataset string
	Points  []Fig6Point
}

// Fig6Result reproduces Figure 6: accuracy and power reduction versus
// class-memory bit-error rate for quantized models (§4.3.4).
type Fig6Result struct {
	Curves []Fig6Curve
}

// Figure6 trains one model per dataset, quantizes it to each bit-width,
// injects memory faults at each BER, and pairs the resulting accuracy with
// the voltage-over-scaling power savings the BER buys.
func Figure6(cfg Config) (*Fig6Result, error) {
	cfg = cfg.normalized()
	res := &Fig6Result{}
	faultRNG := rng.New(cfg.Seed ^ 0xfa117)
	for _, name := range Fig6Datasets {
		ds, err := dataset.Load(name, cfg.Seed)
		if err != nil {
			return nil, err
		}
		enc, err := encoding.New(encoding.Generic, dataset.EncoderConfig(ds, cfg.D, cfg.Seed))
		if err != nil {
			return nil, err
		}
		// The dataset loop stays serial: fault injection draws from one
		// shared RNG stream, so fanning datasets out would change results.
		// The batch encode/evaluate inside it still parallelizes safely.
		base, testH, err := encodeAndTrain(enc, ds, cfg)
		if err != nil {
			return nil, err
		}
		curve := Fig6Curve{Dataset: name}
		for _, ber := range Fig6BERs {
			inj, err := faults.Spec{Site: faults.SiteClass, Kind: faults.Uniform, Rate: ber}.Injector()
			if err != nil {
				return nil, err
			}
			pt := Fig6Point{BER: ber, Accuracy: map[int]float64{}}
			vos := power.VOSForBER(ber)
			pt.StaticSaving = 1 / vos.StaticFactor
			pt.DynSaving = 1 / vos.DynFactor
			for _, bw := range Fig6BitWidths {
				m := base.Clone()
				m.Quantize(bw)
				inj.Apply(faults.ClassMem(m), faultRNG)
				m.RefreshAllNorms()
				pt.Accuracy[bw] = classifier.EvaluateDimsBatch(m, testH, ds.TestY, m.D(), true, cfg.Workers)
			}
			curve.Points = append(curve.Points, pt)
		}
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}

// ToleratedBER returns the largest swept BER at which the dataset's bw-bit
// model stays within drop of its fault-free accuracy.
func (r *Fig6Result) ToleratedBER(dataset string, bw int, drop float64) float64 {
	for _, c := range r.Curves {
		if c.Dataset != dataset {
			continue
		}
		base := c.Points[0].Accuracy[bw]
		tolerated := 0.0
		for _, p := range c.Points {
			if base-p.Accuracy[bw] <= drop {
				tolerated = p.BER
			}
		}
		return tolerated
	}
	return 0
}

// String renders the sweep tables.
func (r *Fig6Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 6: accuracy and power reduction vs class-memory bit-error rate\n")
	for _, c := range r.Curves {
		t := &table{header: []string{"BER", "8b", "4b", "2b", "1b", "static ×", "dyn ×"}}
		for _, p := range c.Points {
			t.addRow(
				fmt.Sprintf("%.1f%%", 100*p.BER),
				fmtPct(p.Accuracy[8]), fmtPct(p.Accuracy[4]),
				fmtPct(p.Accuracy[2]), fmtPct(p.Accuracy[1]),
				fmt.Sprintf("%.1f", p.StaticSaving), fmt.Sprintf("%.1f", p.DynSaving),
			)
		}
		b.WriteString(c.Dataset + "\n" + t.String() + "\n")
	}
	return b.String()
}
