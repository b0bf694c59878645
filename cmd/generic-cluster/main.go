// Command generic-cluster runs HDC clustering and the k-means baseline on
// one of the paper's clustering benchmarks and reports both normalized
// mutual information scores (Table 2).
//
// Usage:
//
//	generic-cluster -dataset Hepta
//	generic-cluster -dataset TwoDiamonds -d 2048 -epochs 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/perf"
)

func main() {
	var (
		name    = flag.String("dataset", "Hepta", "benchmark ("+strings.Join(generic.ClusterSets(), ",")+")")
		d       = flag.Int("d", 4096, "hypervector dimensionality")
		epochs  = flag.Int("epochs", 10, "clustering epochs")
		seed    = flag.Uint64("seed", 1, "random seed")
		k       = flag.Int("k", 0, "cluster count (0 = ground truth)")
		workers = flag.Int("workers", 0, "worker count for encoding and assignment scans (0 = all cores, 1 = serial; results are identical)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")
		traceF  = flag.String("trace", "", "enable span tracing and write Chrome trace-event JSON to this file")
	)
	flag.Parse()
	profiles, err := perf.StartProfiles(*cpuProf, *memProf, *traceF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "generic-cluster:", err)
		os.Exit(1)
	}
	defer func() {
		if err := profiles.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "generic-cluster:", err)
		}
	}()

	cs, err := generic.LoadClusterSet(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "generic-cluster:", err)
		os.Exit(1)
	}
	kk := cs.K
	if *k > 0 {
		kk = *k
	}
	n := 3
	if cs.Features < n {
		n = cs.Features
	}
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: *d, Features: cs.Features, Bins: 32, Lo: cs.Lo, Hi: cs.Hi,
		N: n, UseID: true, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "generic-cluster:", err)
		os.Exit(1)
	}

	fmt.Printf("dataset %s: %d points, %d features, k=%d\n", cs.Name, len(cs.X), cs.Features, kk)
	hdcRes, err := generic.Cluster(enc, cs.X, kk, *epochs, generic.WithWorkers(*workers))
	if err != nil {
		fmt.Fprintln(os.Stderr, "generic-cluster:", err)
		os.Exit(1)
	}
	kmRes := generic.KMeans(cs.X, kk, 100, 10, *seed)
	fmt.Printf("HDC clustering NMI:     %.3f (%d epochs)\n",
		generic.NMI(hdcRes.Assignments, cs.Labels), hdcRes.Epochs)
	fmt.Printf("k-means baseline NMI:   %.3f (%d Lloyd iterations, best of 10)\n",
		generic.NMI(kmRes.Assignments, cs.Labels), kmRes.Iters)
}
