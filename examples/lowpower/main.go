// Low-power deployment walk-through: stacking the paper's three §4.3
// energy-reduction techniques on the accelerator model and watching energy
// and accuracy move — the recipe behind the GENERIC-LP bars of Figure 9.
//
//   - application-opportunistic power gating (free: unused class-memory
//     banks are permanently off for a given application);
//
//   - on-demand dimension reduction (4× fewer dimensions with sub-norms);
//
//   - bit-width masking plus voltage over-scaling (quantized model +
//     SRAM supply scaled into the error-tolerant region).
//
//     go run ./examples/lowpower
package main

import (
	"fmt"
	"log"

	generic "github.com/edge-hdc/generic"
)

func main() {
	ds, err := generic.LoadDataset("FACE", 5)
	if err != nil {
		log.Fatal(err)
	}

	type step struct {
		label string
		d     int
		bw    int
		ber   float64
	}
	steps := []step{
		{"baseline (D=4K, 16b, nominal V)", 4096, 16, 0},
		{"+ dimension reduction (D=1K)", 1024, 16, 0},
		{"+ 4-bit model", 1024, 4, 0},
		{"+ voltage over-scaling (1% BER)", 1024, 4, 0.01},
	}

	fmt.Printf("FACE, %d features, %d classes — energy ladder:\n\n", ds.Features, ds.Classes)
	var baseline float64
	for _, s := range steps {
		// Train at 16-bit precision; the accelerator's mask unit quantizes
		// the model when a narrower bw is deployed (§4.3.4).
		spec := generic.Spec{
			D: s.d, Features: ds.Features, N: 3, Classes: ds.Classes,
			BW: 16, UseID: ds.UseID, Mode: generic.ModeTrain,
		}
		acc, err := generic.NewAccelerator(spec, 5, ds.Lo, ds.Hi)
		if err != nil {
			log.Fatal(err)
		}
		acc.Train(ds.TrainX, ds.TrainY, 10)
		if s.bw < 16 {
			acc.Model().Quantize(s.bw)
		}
		if s.ber > 0 {
			// Voltage over-scaling corrupts the class memories; HDC's
			// redundancy absorbs it (Fig. 6).
			if _, err := acc.InjectFaults(generic.FaultSpec{
				Site: generic.FaultSiteClass, Kind: generic.FaultUniform, Rate: s.ber, Seed: 99,
			}); err != nil {
				log.Fatal(err)
			}
		}
		acc.ResetStats()
		preds := acc.InferAll(ds.TestX)
		correct := 0
		for i, p := range preds {
			if p == ds.TestY[i] {
				correct++
			}
		}
		pcfg := generic.PowerConfig{
			ActiveBankFrac: spec.ActiveBankFrac(), BW: s.bw,
		}
		if s.ber > 0 {
			pcfg.VOS = generic.VOSForBER(s.ber)
		}
		rep := generic.Energy(acc.Stats(), pcfg)
		perInput := rep.TotalJ / float64(ds.TestLen())
		if baseline == 0 {
			baseline = perInput
		}
		fmt.Printf("%-34s %8.1f nJ/input  (%.1f×)  accuracy %.1f%%\n",
			s.label, perInput*1e9, baseline/perInput,
			100*float64(correct)/float64(ds.TestLen()))
	}
}
