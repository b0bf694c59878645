// Spoken-letter recognition (ISOLET-like) with IoT-gateway retraining —
// the paper's burst-inference scenario: a gateway first trains on-device,
// then serves inference bursts, trading dimensions for energy on demand
// (§4.3.3).
//
// The example sweeps the deployed dimensionality and shows the Fig. 5
// effect: with the norm2 memory's per-128-dimension sub-norms, accuracy
// holds far below the trained dimensionality; with stale full-model norms
// it collapses.
//
//	go run ./examples/isolet
package main

import (
	"fmt"
	"log"

	generic "github.com/edge-hdc/generic"
)

func main() {
	ds, err := generic.LoadDataset("ISOLET", 3)
	if err != nil {
		log.Fatal(err)
	}
	const d = 4096
	enc, err := generic.EncoderForDataset(generic.Generic, ds, d, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ISOLET: %d train / %d test, %d features, %d classes\n",
		ds.TrainLen(), ds.TestLen(), ds.Features, ds.Classes)

	// Train once at full dimensionality. The gateway bootstraps from a
	// small on-device training set (a tenth of the corpus) — the regime
	// where the dimension/accuracy trade-off is visible.
	boot := ds.TrainLen() / 10
	p := generic.NewPipeline(enc, ds.Classes)
	if _, err := p.Fit(ds.TrainX[:boot], ds.TrainY[:boot], generic.TrainOptions{Epochs: 20, Seed: 3}); err != nil {
		log.Fatal(err)
	}
	model := p.Model()
	testH := generic.Encode(enc, ds.TestX)

	evalDims := func(dims int, updated bool) float64 {
		correct := 0
		for i, h := range testH {
			if c, _, _ := model.PredictDimsMargin(h, dims, updated); c == ds.TestY[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(testH))
	}

	fmt.Println("\ndims   updated-norms   constant-norms   rel. energy")
	for dims := 512; dims <= d; dims *= 2 {
		fmt.Printf("%4d   %6.1f%%         %6.1f%%          %.2f×\n",
			dims, 100*evalDims(dims, true), 100*evalDims(dims, false),
			float64(dims)/float64(d))
	}
	fmt.Println("\nwith sub-norms the gateway can serve bursts at 1K dims —")
	fmt.Println("4× less energy per query — and return to 4K when accuracy matters.")
	fmt.Println("(this synthetic ISOLET is dimension-tolerant; run the fig5 experiment")
	fmt.Println(" on EEG to see the constant-norm collapse the paper reports)")
}
