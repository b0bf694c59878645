package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/faults"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// ResilienceDataset is the benchmark the resilience sweep runs on. ISOLET
// is the paper's fault-injection workload (Fig. 6) and binds per-window
// ids, so every persistent fault site is exercisable.
const ResilienceDataset = "ISOLET"

// ResilienceSites are the persistent fault sites the sweep covers — every
// Fig. 4 memory with stored state. Input and datapath faults are transient
// and belong to the accelerator sim's per-operation injection.
var ResilienceSites = []faults.Site{faults.SiteClass, faults.SiteLevel, faults.SiteID, faults.SiteNorm}

// ResilienceBERs is the per-bit corruption-rate grid.
var ResilienceBERs = []float64{0.001, 0.01, 0.05, 0.1}

// ResiliencePoint is one (site, BER) cell: accuracy right after corruption
// and again after a scrub-and-repair pass.
type ResiliencePoint struct {
	Site         string  `json:"site"`
	BER          float64 `json:"ber"`
	InjectedBits int     `json:"injected_bits"`
	Corrupted    float64 `json:"corrupted_accuracy"`
	Recovered    float64 `json:"recovered_accuracy"`
	LanesMasked  int     `json:"lanes_masked"`
	Quarantined  int     `json:"quarantined_rows"`
	Tolerated    int     `json:"tolerated_rows"`
}

// ResilienceBinaryPoint is one class-site BER cell on the packed binary
// representation: bits are flipped directly in the binary model's packed
// words (faults.BinaryClassMem), accuracy is measured on packed Hamming
// inference, and the repair is rebinarization from the intact integer
// counters — the binary analogue of the scrub pass. Only the class site is
// swept: the binary path has no norm memory to corrupt, and level/id faults
// hit the encoder before representation and so affect both paths alike.
type ResilienceBinaryPoint struct {
	BER          float64 `json:"ber"`
	InjectedBits int     `json:"injected_bits"`
	Corrupted    float64 `json:"corrupted_accuracy"`
	Rebinarized  float64 `json:"rebinarized_accuracy"`
}

// ResilienceBank is the whole-bank-failure case: one striped class memory
// dies, the scrub masks its lane, and the dot product renormalizes over the
// surviving 15/16 of the dimensions.
type ResilienceBank struct {
	Lane       int     `json:"lane"`
	Corrupted  float64 `json:"corrupted_accuracy"`
	Recovered  float64 `json:"recovered_accuracy"`
	DropPoints float64 `json:"drop_points"` // baseline − recovered, in accuracy points
}

// ResilienceResult is the accuracy-vs-BER-per-fault-site sweep plus the
// bank-failure case.
type ResilienceResult struct {
	Dataset  string            `json:"dataset"`
	D        int               `json:"d"`
	Seed     uint64            `json:"seed"`
	Baseline float64           `json:"baseline_accuracy"`
	Points   []ResiliencePoint `json:"points"`
	// BinaryBaseline and BinaryPoints are the packed-representation column:
	// the same trained model binarized, scored by Hamming distance, with
	// class-memory bit errors injected into the packed words themselves.
	BinaryBaseline float64                 `json:"binary_baseline_accuracy"`
	BinaryPoints   []ResilienceBinaryPoint `json:"binary_points"`
	Bank           ResilienceBank          `json:"bank_failure"`
}

// Resilience sweeps uniform bit errors over every persistent fault site of
// the accelerator, measuring accuracy after corruption and after the
// scrub-and-repair pass, then kills one whole class-memory bank and
// measures the post-mask degradation. Every cell is independently seeded
// from cfg.Seed, so the sweep is bit-reproducible.
func Resilience(cfg Config) (*ResilienceResult, error) {
	cfg = cfg.normalized()
	ds, err := dataset.Load(ResilienceDataset, cfg.Seed)
	if err != nil {
		return nil, err
	}
	enc, err := encoding.New(encoding.Generic, dataset.EncoderConfig(ds, cfg.D, cfg.Seed))
	if err != nil {
		return nil, err
	}
	base, testH, err := encodeAndTrain(enc, ds, cfg)
	if err != nil {
		return nil, err
	}
	res := &ResilienceResult{
		Dataset:  ds.Name,
		D:        cfg.D,
		Seed:     cfg.Seed,
		Baseline: classifier.EvaluateDimsBatch(base, testH, ds.TestY, base.D(), true, cfg.Workers),
	}

	// evaluate scores the model against the current encoder state: when the
	// encoder material is corrupt, the pre-encoded test set is stale and the
	// samples must pass through the (faulted) level/id memories again.
	evaluate := func(m *classifier.Model, reEncode bool) float64 {
		h := testH
		if reEncode {
			h = encoding.EncodeAllWorkers(enc, ds.TestX, cfg.Workers)
		}
		return classifier.EvaluateDimsBatch(m, h, ds.TestY, m.D(), true, cfg.Workers)
	}

	// The site × BER sweep stays serial: level/id cells mutate the shared
	// encoder in place (scrubbing it back before the next cell), so fanning
	// out would race. Batch encode/evaluate inside each cell parallelizes.
	for si, site := range ResilienceSites {
		encoderSite := site == faults.SiteLevel || site == faults.SiteID
		for bi, ber := range ResilienceBERs {
			m := base.Clone()
			ctl := faults.NewController(m, enc)
			spec := faults.Spec{
				Site: site, Kind: faults.Uniform, Rate: ber,
				Seed: cfg.Seed ^ uint64(si+1)<<32 ^ uint64(bi+1),
			}
			n, err := ctl.Inject(spec)
			if err != nil {
				if errors.Is(err, faults.ErrNoIDMemory) {
					continue // dataset encodes id-less; nothing to corrupt
				}
				return nil, err
			}
			pt := ResiliencePoint{
				Site: site.String(), BER: ber, InjectedBits: n,
				Corrupted: evaluate(m, encoderSite),
			}
			rep := ctl.Scrub()
			pt.Recovered = evaluate(m, encoderSite)
			pt.LanesMasked = rep.LanesMasked
			pt.Quarantined = rep.QuarantinedRows
			pt.Tolerated = rep.ToleratedRows
			res.Points = append(res.Points, pt)
		}
	}

	// Binary column: binarize the trained model, pack the encoded test set,
	// and sweep class-memory bit errors over the packed words directly. The
	// repair path rebinarizes from the intact integer counters — class
	// counters are the durable state, packed words a derived cache.
	{
		bbase := classifier.Binarize(base)
		testB := make([]*hdc.BinVec, len(testH))
		for i, h := range testH {
			bv := hdc.NewBinVec(len(h))
			bv.PackSigns(h)
			testB[i] = bv
		}
		res.BinaryBaseline = classifier.BinaryAccuracy(bbase, testB, ds.TestY, cfg.Workers)
		for bi, ber := range ResilienceBERs {
			bm := bbase.Clone()
			spec := faults.Spec{
				Site: faults.SiteClass, Kind: faults.Uniform, Rate: ber,
				Seed: cfg.Seed ^ 0xb1<<48 ^ uint64(bi+1),
			}
			inj, err := spec.Injector()
			if err != nil {
				return nil, err
			}
			n := inj.Apply(faults.BinaryClassMem(bm), rng.New(spec.Seed))
			pt := ResilienceBinaryPoint{
				BER: ber, InjectedBits: n,
				Corrupted: classifier.BinaryAccuracy(bm, testB, ds.TestY, cfg.Workers),
			}
			for c := 0; c < bm.Classes(); c++ {
				bm.RebinarizeClass(base, c)
			}
			pt.Rebinarized = classifier.BinaryAccuracy(bm, testB, ds.TestY, cfg.Workers)
			res.BinaryPoints = append(res.BinaryPoints, pt)
		}
	}

	// Whole-bank failure: lane 0 dies, the guard flags it, the scrub masks
	// it, and the model limps on with 15/16 of its dimensions.
	{
		m := base.Clone()
		ctl := faults.NewController(m, enc)
		spec := faults.Spec{Site: faults.SiteClass, Kind: faults.BankFail, Lane: 0, Seed: cfg.Seed ^ 0xbeef}
		if _, err := ctl.Inject(spec); err != nil {
			return nil, err
		}
		res.Bank.Lane = 0
		res.Bank.Corrupted = evaluate(m, false)
		ctl.Scrub()
		res.Bank.Recovered = evaluate(m, false)
		res.Bank.DropPoints = 100 * (res.Baseline - res.Bank.Recovered)
	}
	return res, nil
}

// WriteJSON writes the result as an indented JSON artifact (the BENCH-style
// machine-readable counterpart of String's table).
func (r *ResilienceResult) WriteJSON(w io.Writer) error {
	e := json.NewEncoder(w)
	e.SetIndent("", "  ")
	return e.Encode(r)
}

// String renders the sweep table.
func (r *ResilienceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resilience: accuracy vs BER per fault site (%s, D=%d, baseline %s)\n",
		r.Dataset, r.D, fmtPct(r.Baseline))
	t := &table{header: []string{"site", "BER", "bits", "corrupted", "scrubbed", "masked", "quarantined", "tolerated"}}
	for _, p := range r.Points {
		t.addRow(
			p.Site, fmt.Sprintf("%.1f%%", 100*p.BER), fmt.Sprintf("%d", p.InjectedBits),
			fmtPct(p.Corrupted), fmtPct(p.Recovered),
			fmt.Sprintf("%d", p.LanesMasked), fmt.Sprintf("%d", p.Quarantined),
			fmt.Sprintf("%d", p.Tolerated),
		)
	}
	b.WriteString(t.String())
	if len(r.BinaryPoints) > 0 {
		fmt.Fprintf(&b, "binary (packed class memory, baseline %s):\n", fmtPct(r.BinaryBaseline))
		bt := &table{header: []string{"BER", "bits", "corrupted", "rebinarized"}}
		for _, p := range r.BinaryPoints {
			bt.addRow(
				fmt.Sprintf("%.1f%%", 100*p.BER), fmt.Sprintf("%d", p.InjectedBits),
				fmtPct(p.Corrupted), fmtPct(p.Rebinarized),
			)
		}
		b.WriteString(bt.String())
	}
	fmt.Fprintf(&b, "bank failure (lane %d): %s corrupted -> %s after mask (%.1f-point drop)\n",
		r.Bank.Lane, fmtPct(r.Bank.Corrupted), fmtPct(r.Bank.Recovered), r.Bank.DropPoints)
	return b.String()
}
