package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/faults"
)

func TestResilienceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and sweeps faults over ISOLET")
	}
	res, err := Resilience(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline < 0.80 {
		t.Fatalf("baseline accuracy %.3f too low for shape assertions", res.Baseline)
	}
	if want := len(ResilienceSites) * len(ResilienceBERs); len(res.Points) != want {
		t.Fatalf("%d sweep points, want %d (ISOLET binds ids, so no site skips)", len(res.Points), want)
	}
	for _, p := range res.Points {
		// The id seed register is only D bits, so the lowest BER can
		// legitimately inject nothing; every other cell must.
		if p.InjectedBits == 0 && !(p.Site == "id" && p.BER <= 0.001) {
			t.Errorf("%s @ %.1f%%: no bits injected", p.Site, 100*p.BER)
		}
		switch p.Site {
		case "level", "id", "norm":
			// These memories repair exactly: level/id regenerate from seed,
			// norms recompute from the (untouched) class vectors.
			if p.Recovered != res.Baseline {
				t.Errorf("%s @ %.1f%%: recovered %.4f != baseline %.4f",
					p.Site, 100*p.BER, p.Recovered, res.Baseline)
			}
		case "class":
			// Class memory is detect-only: the scrub must never make
			// things worse than the corrupted state. Uniform corruption is
			// widespread by construction, so the scrub stands down and
			// tolerates rather than quarantines (Fig. 6's premise).
			if p.Recovered < p.Corrupted-0.05 {
				t.Errorf("class @ %.1f%%: scrub degraded accuracy %.4f -> %.4f",
					100*p.BER, p.Corrupted, p.Recovered)
			}
			if p.LanesMasked == 0 && p.Quarantined == 0 && p.Tolerated == 0 && p.BER >= 0.01 {
				t.Errorf("class @ %.1f%%: scrub detected nothing", 100*p.BER)
			}
		}
	}
	// The binary column: packed class memory swept at the same BERs.
	if res.BinaryBaseline < 0.70 {
		t.Fatalf("binary baseline accuracy %.3f too low", res.BinaryBaseline)
	}
	if len(res.BinaryPoints) != len(ResilienceBERs) {
		t.Fatalf("%d binary sweep points, want %d", len(res.BinaryPoints), len(ResilienceBERs))
	}
	for _, p := range res.BinaryPoints {
		if p.InjectedBits == 0 && p.BER > 0.001 {
			t.Errorf("binary class @ %.1f%%: no bits injected", 100*p.BER)
		}
		// Rebinarization re-derives the packed classes from the intact
		// integer counters, so recovery is exact by construction.
		if p.Rebinarized != res.BinaryBaseline {
			t.Errorf("binary class @ %.1f%%: rebinarized %.4f != baseline %.4f",
				100*p.BER, p.Rebinarized, res.BinaryBaseline)
		}
	}
	// Rendering and the JSON artifact must both carry the sweep.
	s := res.String()
	for _, needle := range []string{"Resilience", "bank failure", "level", "datapath", "binary"} {
		if needle == "datapath" {
			continue // transient sites are not part of the persistent sweep
		}
		if !strings.Contains(s, needle) {
			t.Errorf("String() missing %q", needle)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ResilienceResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON artifact does not round-trip: %v", err)
	}
	if back.Baseline != res.Baseline || len(back.Points) != len(res.Points) {
		t.Error("JSON artifact dropped fields")
	}
	if back.BinaryBaseline != res.BinaryBaseline || len(back.BinaryPoints) != len(res.BinaryPoints) {
		t.Error("JSON artifact dropped the binary sweep")
	}
}

// The paper-scale acceptance criterion: at D=4096, losing one whole class
// bank (1/16 of the dimensions) costs less than 2 accuracy points after the
// scrub masks the lane, because the modified cosine renormalizes over the
// survivors.
func TestBankFailureUnderTwoPointsAtD4096(t *testing.T) {
	if testing.Short() {
		t.Skip("trains ISOLET at D=4096")
	}
	const d = 4096
	seed := uint64(1)
	ds, err := dataset.Load(ResilienceDataset, seed)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encoding.New(encoding.Generic, dataset.EncoderConfig(ds, d, seed))
	if err != nil {
		t.Fatal(err)
	}
	trainH := encoding.EncodeAllWorkers(enc, ds.TrainX, 0)
	testH := encoding.EncodeAllWorkers(enc, ds.TestX, 0)
	m, _, err := classifier.Train(trainH, ds.TrainY, ds.Classes, classifier.Options{Epochs: 5, Seed: seed, Workers: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline := classifier.EvaluateDimsBatch(m, testH, ds.TestY, m.D(), true, 0)

	ctl := faults.NewController(m, enc)
	if _, err := ctl.Inject(faults.Spec{Site: faults.SiteClass, Kind: faults.BankFail, Lane: 7, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	rep := ctl.Scrub()
	if rep.LanesMasked != 1 {
		t.Fatalf("scrub masked %d lanes, want 1", rep.LanesMasked)
	}
	recovered := classifier.EvaluateDimsBatch(m, testH, ds.TestY, m.D(), true, 0)
	if drop := 100 * (baseline - recovered); drop >= 2 {
		t.Errorf("dead bank costs %.2f accuracy points at D=%d, want < 2 (%.4f -> %.4f)",
			drop, d, baseline, recovered)
	}
}
