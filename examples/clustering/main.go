// Unsupervised learning on edge: HDC clustering versus k-means on the FCPS
// geometry benchmarks and Iris (paper §5.3, Table 2, Figure 10).
//
// The example clusters each benchmark twice — in hyperspace with the
// GENERIC engine's copy-centroid algorithm, and with classical k-means —
// and reports external quality (normalized mutual information) alongside
// the accelerator's per-input energy for the HDC run.
//
//	go run ./examples/clustering
package main

import (
	"fmt"
	"log"

	generic "github.com/edge-hdc/generic"
)

func main() {
	fmt.Println("dataset       k   HDC NMI  k-means NMI  accel energy/input")
	for _, name := range generic.ClusterSets() {
		cs, err := generic.LoadClusterSet(name, 1)
		if err != nil {
			log.Fatal(err)
		}
		n := 3
		if cs.Features < n {
			n = cs.Features
		}

		// Software runs for quality.
		enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
			D: 4096, Features: cs.Features, Bins: 32, Lo: cs.Lo, Hi: cs.Hi,
			N: n, UseID: true, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		hdcRes, err := generic.Cluster(enc, cs.X, cs.K, 10)
		if err != nil {
			log.Fatal(err)
		}
		kmRes := generic.KMeans(cs.X, cs.K, 100, 10, 1)

		// Accelerator run for energy.
		spec := generic.Spec{
			D: 4096, Features: cs.Features, N: n, Classes: cs.K,
			BW: 16, UseID: true, Mode: generic.ModeCluster,
		}
		acc, err := generic.NewAccelerator(spec, 1, cs.Lo, cs.Hi)
		if err != nil {
			log.Fatal(err)
		}
		acc.ClusterFit(cs.X, 10)
		rep := generic.Energy(acc.Stats(), generic.PowerConfig{
			ActiveBankFrac: spec.ActiveBankFrac(),
		})
		perInput := rep.TotalJ / float64(len(cs.X)*11)

		fmt.Printf("%-12s %2d   %.3f    %.3f        %.3f µJ\n",
			cs.Name, cs.K,
			generic.NMI(hdcRes.Assignments, cs.Labels),
			generic.NMI(kmRes.Assignments, cs.Labels),
			perInput*1e6)
	}
}
