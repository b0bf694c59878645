// Command generic-serve is an HTTP inference daemon over a trained GENERIC
// pipeline — the serving counterpart of cmd/generic-train. It loads a model
// file written by Pipeline.SaveFile (or self-trains on a named synthetic
// benchmark, or resumes from a -state-dir checkpoint) and exposes:
//
//	POST /predict        {"x":[...]} or {"xs":[[...],...]} → predicted label(s)
//	POST /adapt          {"x":[...],"label":n} → durable online-learning step
//	GET  /metrics        telemetry registry snapshot (JSON; ?format=prom for
//	                     Prometheus text exposition)
//	GET  /quality        model-quality window: margins, drift, shadow agreement
//	GET  /healthz        liveness: 200 ok/degraded, 503 failing
//	GET  /readyz         readiness: 503 while draining or failing
//	GET  /debug/pprof/*  runtime profiling
//
// The serving core (internal/serve) keeps the model behind an immutable
// atomic snapshot: predicts are lock-free, adapts clone-modify-publish and
// are logged to a crash-safe WAL before acknowledgment, a background scrub
// loop CRC-sweeps and self-repairs the model, and per-endpoint admission
// gates shed overload with 429 instead of queueing into collapse. A quality
// monitor rotates the rolling margin window, checks for distribution drift
// against the Fit-time profile, and degrades /healthz while drift is
// sustained. SIGINT/SIGTERM drain in-flight requests, checkpoint, and exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/quality"
	"github.com/edge-hdc/generic/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		model   = flag.String("model", "", "trained model file (Pipeline.SaveFile format)")
		dataset = flag.String("dataset", "", "self-train on this synthetic benchmark instead of loading a model")
		epochs  = flag.Int("epochs", 20, "retraining epochs for -dataset self-training")
		d       = flag.Int("d", 2048, "hypervector dimensionality for -dataset self-training")
		seed    = flag.Uint64("seed", 1, "hypervector/dataset seed for -dataset self-training")
		workers = flag.Int("workers", 0, "fan-out for batch /predict requests (<= 0 means GOMAXPROCS)")

		// Durability.
		stateDir  = flag.String("state-dir", "", "durable state directory (adapt WAL + checkpoints); empty serves in memory only")
		walSync   = flag.String("wal-sync", "always", "WAL fsync policy: always (durable past power loss) or none (page cache)")
		ckptEvery = flag.Int("checkpoint-every", 1024, "checkpoint and truncate the WAL after this many adapt records (0: only at shutdown)")

		// Admission control and deadlines.
		deadline   = flag.Duration("deadline", 10*time.Second, "per-request deadline (0 disables)")
		maxPredict = flag.Int("max-inflight-predict", 256, "concurrent /predict bound before shedding with 429 (0: unlimited)")
		maxAdapt   = flag.Int("max-inflight-adapt", 64, "concurrent /adapt bound before shedding with 429 (0: unlimited)")

		// Self-healing and chaos.
		scrubEvery   = flag.Duration("scrub-every", time.Minute, "background CRC-sweep + self-repair interval (0 disables)")
		chaos        = flag.Bool("chaos", false, "torment mode: periodically inject faults and handler latency to exercise degradation")
		chaosSeed    = flag.Uint64("chaos-seed", 1, "chaos torment stream seed")
		chaosEvery   = flag.Duration("chaos-every", 2*time.Second, "interval between chaos fault injections")
		chaosLatency = flag.Duration("chaos-latency", 50*time.Millisecond, "max chaos-injected handler latency")

		// Logging.
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error (debug disables request sampling)")
		logSample = flag.Int("log-sample", 100, "log 1 in N successful predict/adapt requests (errors always log; <=1 logs all)")

		// Model-quality monitoring.
		qualityEvery    = flag.Duration("quality-every", 10*time.Second, "quality window rotation + drift check interval (0 disables the monitor)")
		driftPSI        = flag.Float64("drift-psi", 0.25, "PSI at or above which a window counts toward the drift alarm")
		driftClear      = flag.Float64("drift-clear", 0.1, "PSI at or below which a window counts toward clearing the alarm")
		driftWindows    = flag.Int("drift-windows", 3, "consecutive windows over/under threshold to trip/clear the alarm")
		driftMinSamples = flag.Int64("drift-min-samples", 64, "skip drift checks on windows with fewer predicts")
		shadowEvery     = flag.Int("shadow-every", 0, "shadow-score 1 in N binary predicts through the exact counters (0 disables)")
		lowMargin       = flag.Float64("low-margin", 0.05, "margin below which a predict counts as low-margin in /quality")
	)
	flag.Parse()

	level, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "generic-serve:", err)
		os.Exit(1)
	}
	logger = newLogger(os.Stdout, level)

	if err := run(runConfig{
		addr: *addr, model: *model, dataset: *dataset, epochs: *epochs, d: *d, seed: *seed,
		stateDir: *stateDir, walSync: *walSync, ckptEvery: *ckptEvery,
		scrubEvery: *scrubEvery,
		chaos:      *chaos, chaosSeed: *chaosSeed, chaosEvery: *chaosEvery, chaosLatency: *chaosLatency,
		shadowEvery: *shadowEvery, lowMargin: *lowMargin,
		server: serverConfig{
			workers:    *workers,
			deadline:   *deadline,
			maxPredict: *maxPredict,
			maxAdapt:   *maxAdapt,
			logSample:  *logSample,
			quality: qualityConfig{
				every:      *qualityEvery,
				tripPSI:    *driftPSI,
				clearPSI:   *driftClear,
				windows:    *driftWindows,
				minSamples: *driftMinSamples,
			},
		},
	}); err != nil {
		logger.Error("fatal", slog.String("err", err.Error()))
		os.Exit(1)
	}
}

type runConfig struct {
	addr              string
	model, dataset    string
	epochs, d         int
	seed              uint64
	stateDir, walSync string
	ckptEvery         int
	scrubEvery        time.Duration
	chaos             bool
	chaosSeed         uint64
	chaosEvery        time.Duration
	chaosLatency      time.Duration
	shadowEvery       int
	lowMargin         float64
	server            serverConfig
}

func run(cfg runConfig) error {
	policy, err := serve.ParseSyncPolicy(cfg.walSync)
	if err != nil {
		return err
	}

	// A checkpoint in -state-dir is the durable truth after a restart and
	// makes -model/-dataset optional; without one, exactly one source is
	// required, as before.
	var p *generic.Pipeline
	if serve.HasCheckpoint(cfg.stateDir) {
		if cfg.model != "" || cfg.dataset != "" {
			logger.Info(fmt.Sprintf("resuming from checkpoint in %s (-model/-dataset ignored)", cfg.stateDir))
		}
	} else {
		p, err = buildPipeline(cfg.model, cfg.dataset, cfg.epochs, cfg.d, cfg.seed, cfg.server.workers)
		if err != nil {
			return err
		}
	}

	core, err := serve.Open(p, serve.Options{
		Dir:             cfg.stateDir,
		Sync:            policy,
		CheckpointEvery: cfg.ckptEvery,
	})
	if err != nil {
		return err
	}
	if n := core.Replayed(); n > 0 {
		logger.Info(fmt.Sprintf("replayed %d acknowledged adapts from the WAL", n))
	}
	snap := core.Current()
	m := snap.Pipeline.Model()
	// Quality configuration happens pre-serving, while we still hold the
	// exclusive access SetShadowSampling requires; Clone propagates it to
	// every later adapt snapshot.
	snap.Pipeline.SetShadowSampling(cfg.shadowEvery)
	quality.Default.SetLowMarginThreshold(cfg.lowMargin)
	logger.Info(fmt.Sprintf("pipeline ready (D=%d, %d classes, %d-bit, %s mode, snapshot v%d, wal seq %d)",
		m.D(), m.Classes(), m.BW(), snap.Pipeline.Mode(), snap.Version, snap.Seq))

	s := newServer(core, cfg.server)
	stopScrub := core.StartScrubLoop(cfg.scrubEvery)
	stopQuality := func() {}
	if every := cfg.server.quality.every; every > 0 {
		s.monitor.start(every)
		stopQuality = s.monitor.halt
		ref := "bootstrap from first window"
		if s.monitor.det.Ref() != nil {
			ref = "fit-time profile"
		}
		logger.Info("quality monitor running",
			slog.Duration("every", every), slog.String("baseline", ref),
			slog.Int("shadow_every", cfg.shadowEvery))
	}
	stopChaos := func() {}
	if cfg.chaos {
		s.chaos = serve.NewChaos(cfg.chaosSeed, cfg.chaosLatency)
		stopChaos = s.chaos.StartChaos(core, cfg.chaosEvery)
		logger.Warn(fmt.Sprintf("CHAOS MODE (seed %d, inject every %s, latency up to %s)",
			cfg.chaosSeed, cfg.chaosEvery, cfg.chaosLatency))
	}

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           s.routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info(fmt.Sprintf("listening on %s", cfg.addr))

	select {
	case <-ctx.Done():
		stop()
		// Drain: readiness flips first so load balancers stop routing,
		// in-flight requests finish, then the core checkpoints and closes
		// the WAL — acknowledged state is durable before exit.
		s.draining.Store(true)
		stopChaos()
		stopQuality()
		stopScrub()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			core.Close()
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := core.Close(); err != nil {
			return fmt.Errorf("closing serving core: %w", err)
		}
		logger.Info("drained, bye")
		return nil
	case err := <-errc:
		stopChaos()
		stopQuality()
		stopScrub()
		core.Close()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// buildPipeline loads the model file, or — for -dataset — trains a fresh
// pipeline on a synthetic benchmark so smoke tests need no model artifact.
func buildPipeline(model, dataset string, epochs, d int, seed uint64, workers int) (*generic.Pipeline, error) {
	switch {
	case model != "" && dataset != "":
		return nil, errors.New("-model and -dataset are mutually exclusive")
	case model != "":
		p, err := generic.LoadPipelineFile(model)
		if err != nil {
			return nil, err
		}
		if !p.HasChecksum() {
			logger.Warn("model file has no integrity footer")
		}
		return p, nil
	case dataset != "":
		ds, err := generic.LoadDataset(dataset, seed)
		if err != nil {
			return nil, err
		}
		enc, err := generic.EncoderForDataset(generic.Generic, ds, d, seed)
		if err != nil {
			return nil, err
		}
		p := generic.NewPipeline(enc, ds.Classes)
		start := time.Now()
		res, err := p.Fit(ds.TrainX, ds.TrainY, generic.TrainOptions{Epochs: epochs, Seed: seed, Workers: workers})
		if err != nil {
			return nil, err
		}
		logger.Info(fmt.Sprintf("self-trained on %s in %.1fs (%d epochs)",
			ds.Name, time.Since(start).Seconds(), res.EpochsRun))
		return p, nil
	default:
		return nil, errors.New("need -model <file>, -dataset <name>, or a -state-dir checkpoint")
	}
}
