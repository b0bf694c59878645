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
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/perf"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "generic-cluster:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns every error instead of exiting, so
// the deferred profiles.Stop writes the requested profiles on error paths
// too.
func run(args []string) (err error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		name    = fs.String("dataset", "Hepta", "benchmark ("+strings.Join(generic.ClusterSets(), ",")+")")
		d       = fs.Int("d", 4096, "hypervector dimensionality")
		epochs  = fs.Int("epochs", 10, "clustering epochs")
		seed    = fs.Uint64("seed", 1, "random seed")
		k       = fs.Int("k", 0, "cluster count (0 = ground truth)")
		workers = fs.Int("workers", 0, "worker count for encoding and assignment scans (0 = all cores, 1 = serial; results are identical)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile at exit to this file")
		traceF  = fs.String("trace", "", "enable span tracing and write Chrome trace-event JSON to this file")
	)
	fs.Parse(args)
	profiles, err := perf.StartProfiles(*cpuProf, *memProf, *traceF)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, profiles.Stop()) }()

	cs, err := generic.LoadClusterSet(*name, *seed)
	if err != nil {
		return err
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
		return err
	}

	fmt.Printf("dataset %s: %d points, %d features, k=%d\n", cs.Name, len(cs.X), cs.Features, kk)
	hdcRes, err := generic.Cluster(enc, cs.X, kk, *epochs, generic.WithWorkers(*workers))
	if err != nil {
		return err
	}
	kmRes, err := generic.KMeans(cs.X, kk, 100, 10, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("HDC clustering NMI:     %.3f (%d epochs)\n",
		generic.NMI(hdcRes.Assignments, cs.Labels), hdcRes.Epochs)
	fmt.Printf("k-means baseline NMI:   %.3f (%d Lloyd iterations, best of 10)\n",
		generic.NMI(kmRes.Assignments, cs.Labels), kmRes.Iters)
	return nil
}
