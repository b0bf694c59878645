// Command generic-bench regenerates the tables and figures of the GENERIC
// paper's evaluation (DAC'22). Each experiment prints a paper-style table;
// EXPERIMENTS.md records paper-versus-measured for all of them.
//
// Usage:
//
//	generic-bench                  # run every experiment at paper fidelity
//	generic-bench -exp table1,fig9 # run a subset
//	generic-bench -quick           # fast, reduced-fidelity pass
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/perf"
	"github.com/edge-hdc/generic/internal/rng"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "generic-bench:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns every error instead of exiting, so
// the deferred profiles.Stop writes the requested profiles on error paths
// too.
func run(args []string) (err error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		exps    = fs.String("exp", "all", "comma-separated experiment ids ("+strings.Join(generic.Experiments(), ",")+") or 'all'")
		quick   = fs.Bool("quick", false, "reduced-fidelity configuration (seconds instead of minutes)")
		seed    = fs.Uint64("seed", 1, "master random seed (0 = derive one from the clock; the choice is printed so any run can be replayed)")
		d       = fs.Int("d", 0, "hypervector dimensionality override (accuracy experiments)")
		workers = fs.Int("workers", 0, "worker count for the harness sweeps (0 = all cores, 1 = serial; results are identical)")
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
	if *seed == 0 {
		// Derive a fresh seed from the clock, mixed through rng.SplitMix64
		// so close-together launches do not land on correlated xoshiro
		// streams. The clock never feeds the experiments directly; the
		// printed seed replays the run exactly.
		z := uint64(time.Now().UnixNano())
		*seed = rng.SplitMix64(&z)
	}
	fmt.Printf("seed: %d (rerun with -seed %d to reproduce)\n", *seed, *seed)

	cfg := generic.DefaultExperimentConfig()
	if *quick {
		cfg = generic.QuickExperimentConfig()
	}
	cfg.Seed = *seed
	if *d != 0 {
		cfg.D = *d
	}
	cfg.Workers = *workers

	ids := generic.Experiments()
	if *exps != "all" {
		ids = strings.Split(*exps, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		start := time.Now()
		res, err := generic.RunExperiment(id, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("=== %s (%.1fs) ===\n%s\n", id, time.Since(start).Seconds(), res)
	}
	return nil
}
