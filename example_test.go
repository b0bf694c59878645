package generic_test

import (
	"fmt"

	generic "github.com/edge-hdc/generic"
)

// ExamplePipeline shows the minimal classify flow: build the GENERIC
// encoder, fit, predict.
func ExamplePipeline() {
	// Two classes: a pulse in the first half vs the second half.
	var X [][]float64
	var Y []int
	for i := 0; i < 40; i++ {
		x := make([]float64, 16)
		c := i % 2
		for j := 0; j < 4; j++ {
			x[c*8+j] = 1
		}
		X = append(X, x)
		Y = append(Y, c)
	}
	enc, _ := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 512, Features: 16, Lo: 0, Hi: 1, UseID: true, Seed: 1,
	})
	p := generic.NewPipeline(enc, 2)
	p.Fit(X, Y, generic.TrainOptions{Epochs: 3, Seed: 1})

	query := make([]float64, 16)
	query[9], query[10] = 1, 1 // pulse in the second half
	label, _ := p.Predict(query)
	fmt.Println(label)
	// Output: 1
}

// ExampleModel_PredictDimsMargin shows on-demand dimension reduction with
// the norm2 memory's sub-norms (§4.3.3).
func ExampleModel_PredictDimsMargin() {
	enc, _ := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 1024, Features: 8, Lo: 0, Hi: 1, Seed: 2,
	})
	X := [][]float64{
		{1, 1, 1, 1, 0, 0, 0, 0}, {0, 0, 0, 0, 1, 1, 1, 1},
		{1, 1, 1, 0.9, 0, 0, 0, 0}, {0, 0.1, 0, 0, 1, 1, 0.9, 1},
	}
	Y := []int{0, 1, 0, 1}
	p := generic.NewPipeline(enc, 2)
	p.Fit(X, Y, generic.TrainOptions{Epochs: 2})
	m := p.Model()

	h := generic.Encode(enc, X[:1])[0]
	full, _, _ := m.PredictDimsMargin(h, m.D(), true)
	reduced, _, _ := m.PredictDimsMargin(h, 256, true) // a quarter of the dimensions
	fmt.Println(full, reduced)
	// Output: 0 0
}

// ExampleVOSForBER shows the voltage-over-scaling trade-off table (§4.3.4).
func ExampleVOSForBER() {
	p := generic.VOSForBER(0.01) // tolerate 1% class-memory bit errors
	fmt.Printf("static power ×%.2f, dynamic ×%.2f\n", p.StaticFactor, p.DynFactor)
	// Output: static power ×0.19, dynamic ×0.56
}

// ExampleSpec_Fill shows the class-memory occupancy that drives
// application-opportunistic power gating (§4.3.2).
func ExampleSpec_Fill() {
	spec := generic.Spec{D: 4096, Features: 128, N: 3, Classes: 2, BW: 16}
	fmt.Printf("fill %.1f%%, %.0f of 4 banks powered\n",
		100*spec.Fill(), 4*spec.ActiveBankFrac())
	// Output: fill 6.2%, 1 of 4 banks powered
}
