package faults

import (
	"bytes"
	"testing"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/modelio"
	"github.com/edge-hdc/generic/internal/rng"
)

// checkWithinBW fails t unless every class element of m lies in the range a
// bw-bit class memory holds: the signed range of bw bits, [−1, 1] at bw = 1.
// Exact scoring relies on it (hdc.Query's 16-bit lanes).
func checkWithinBW(t *testing.T, writer string, m *classifier.Model) {
	t.Helper()
	lo, hi := int32(-1), int32(1)
	if bw := m.BW(); bw > 1 {
		hi = int32(1)<<(bw-1) - 1
		lo = -hi - 1
	}
	for c := 0; c < m.Classes(); c++ {
		for i, v := range m.Class(c) {
			if v < lo || v > hi {
				t.Fatalf("%s at bw=%d: class %d dim %d holds %d, outside [%d,%d]", writer, m.BW(), c, i, v, lo, hi)
			}
		}
	}
}

// TestClassWritersStayWithinBW walks every writer of class memory at
// several bit-widths and checks that each leaves every element within bw:
// bundling and Update (perceptron training, then Update driven to
// saturation), LeHDC, Quantize, class-fault SetBit, the scrub's quarantine
// and lane masking, MaskDims, SetClass and the model-file load.
func TestClassWritersStayWithinBW(t *testing.T) {
	const d, nC = 256, 4
	r := rng.New(3)
	train := make([]hdc.Vec, 80)
	labels := make([]int, len(train))
	for i := range train {
		train[i] = hdc.NewVec(d)
		for j := range train[i] {
			train[i][j] = int32(r.Intn(253) - 126)
		}
		labels[i] = i % nC
	}
	loud := hdc.NewVec(d)
	for j := range loud {
		loud[j] = 126
	}
	for _, bw := range []int{1, 2, 4, 8, 12, 16} {
		m, _, err := classifier.Train(train, labels, nC, classifier.Options{Epochs: 3, Seed: 1, BW: bw}, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkWithinBW(t, "bundling and Update", m)
		for k := 0; k < 600; k++ {
			m.Update(loud, 0, 1)
		}
		checkWithinBW(t, "Update", m)
		lm, _, err := classifier.Train(train, labels, nC, classifier.Options{Epochs: 2, Seed: 1, BW: bw, Trainer: "lehdc"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkWithinBW(t, "LeHDC", lm)

		q := m.Clone()
		q.Quantize(bw)
		checkWithinBW(t, "Quantize", q)

		ctl := NewController(m, nil)
		if _, err := ctl.Inject(Spec{Site: SiteClass, Kind: Uniform, Rate: 0.3, Seed: 2}); err != nil {
			t.Fatal(err)
		}
		checkWithinBW(t, "class-fault SetBit", m)
		for _, kind := range []Kind{StuckAt0, StuckAt1, Burst} {
			if _, err := ctl.Inject(Spec{Site: SiteClass, Kind: kind, Rate: 0.2, Seed: 3}); err != nil {
				t.Fatal(err)
			}
			checkWithinBW(t, "class-fault SetBit "+kind.String(), m)
		}

		// An isolated bad column is quarantined, a dead bank masked.
		sm := lm.Clone()
		sctl := NewController(sm, nil)
		if _, err := sctl.Inject(Spec{Site: SiteClass, Kind: BankFail, Lane: 3, Seed: 4}); err != nil {
			t.Fatal(err)
		}
		mem := ClassMem(sm)
		mem.SetBit(0, 6, 0, 1-mem.Bit(0, 6, 0))
		if rep := sctl.Scrub(); rep.QuarantinedRows == 0 && rep.LanesMasked == 0 {
			t.Fatalf("bw=%d: scrub neither quarantined nor masked: %+v", bw, rep)
		}
		checkWithinBW(t, "quarantine and lane masking", sm)

		m.MaskDims(5, 16)
		checkWithinBW(t, "MaskDims", m)

		wild := hdc.NewVec(d)
		for j := range wild {
			wild[j] = int32(j%3-1) << 20
		}
		m.SetClass(2, wild)
		checkWithinBW(t, "SetClass", m)

		// A model file's elements are int16: rows written past bw load
		// saturated.
		raw := classifier.NewModel(d, nC, bw)
		for c := 0; c < nC; c++ {
			cv := raw.MutableClass(c)
			for j := range cv {
				cv[j] = int32(j%5-2) * 16000
			}
		}
		var buf bytes.Buffer
		cfg := encoding.Config{D: d, Features: 8, Bins: 4, Lo: 0, Hi: 1, N: 3, Seed: 1}
		if err := modelio.Write(&buf, &modelio.Bundle{Kind: encoding.Generic, Cfg: cfg, Model: raw}); err != nil {
			t.Fatal(err)
		}
		b, err := modelio.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkWithinBW(t, "model-file load", b.Model)
	}
}
