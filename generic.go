// Package generic is a Go reproduction of GENERIC — the highly efficient
// hyperdimensional-computing (HDC) learning engine for the edge published
// at DAC 2022 (Khaleghi et al., DOI 10.1145/3489517.3530669).
//
// The package exposes four layers:
//
//   - Encoders (NewEncoder): the paper's windowed GENERIC encoding plus the
//     four baseline HDC encodings it is evaluated against (random
//     projection, level-id, ngram, permutation).
//   - Learning (Pipeline, Cluster): HDC classification with
//     retraining, bit-width quantization, on-demand dimension reduction,
//     and k-centroid HDC clustering.
//   - Hardware (NewAccelerator): a cycle-level model of the GENERIC ASIC —
//     functional fixed-point inference with Mitchell-approximate scoring,
//     cycle/memory-access accounting, and the §4.3 energy-reduction levers
//     (bank power gating, voltage over-scaling, bit-width masking), with
//     area/power/energy models calibrated to the paper's 14 nm numbers.
//   - Experiments (Experiments, RunExperiment): harnesses that regenerate
//     every table and figure of the paper's evaluation.
//
// A minimal classification flow:
//
//	enc, _ := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
//		D: 4096, Features: 64, Lo: 0, Hi: 1, UseID: true, Seed: 1,
//	})
//	p := generic.NewPipeline(enc, nClasses)
//	res, err := p.Fit(trainX, trainY, generic.TrainOptions{Epochs: 20})
//	label, err := p.Predict(x)
//
// Batch entry points take variadic options: PredictAll(X) and
// Accuracy(X, Y) run serially, PredictAll(X, generic.WithWorkers(0)) fans
// out across GOMAXPROCS workers with bit-identical results.
//
// See the examples directory for runnable end-to-end scenarios and
// EXPERIMENTS.md for the paper-versus-measured record.
package generic

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/cluster"
	"github.com/edge-hdc/generic/internal/dataset"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/faults"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/metrics"
	"github.com/edge-hdc/generic/internal/parallel"
	"github.com/edge-hdc/generic/internal/perf"
	"github.com/edge-hdc/generic/internal/power"
	"github.com/edge-hdc/generic/internal/quality"
	"github.com/edge-hdc/generic/internal/sim"
	"github.com/edge-hdc/generic/internal/telemetry"
	"github.com/edge-hdc/generic/internal/trace"
)

// ErrNotTrained is returned (wrapped) by pipeline entry points used before
// Fit (or before loading a trained model).
var ErrNotTrained = errors.New("generic: pipeline used before Fit")

// ErrNotBinarized is returned (wrapped) when binary inference is requested —
// WithMode(Binary) — on a pipeline that has not made the mode transition via
// Binarize (or loaded a binarized model file).
var ErrNotBinarized = errors.New("generic: binary inference requested before Binarize")

// EncodingKind selects an HDC encoding family.
type EncodingKind = encoding.Kind

// The five encodings of the paper's Table 1.
const (
	RP      = encoding.RP
	LevelID = encoding.LevelID
	Ngram   = encoding.Ngram
	Permute = encoding.Permute
	Generic = encoding.Generic
)

// EncoderConfig parameterizes an encoder; zero fields take the paper's
// defaults (D=4096, Bins=64, N=3).
type EncoderConfig = encoding.Config

// Encoder maps feature vectors to integer hypervectors. Encoder values come
// only from NewEncoder (and EncoderForDataset): model files, fault repair and
// pipeline clones rebuild or share material that only the library makes.
type Encoder = encoding.Encoder

// Hypervector is an integer hypervector (an encoded query or a class
// vector).
type Hypervector = hdc.Vec

// NewEncoder constructs an encoder of the given kind.
func NewEncoder(kind EncodingKind, cfg EncoderConfig) (Encoder, error) {
	return encoding.New(kind, cfg)
}

// Encode is a convenience that encodes a batch of inputs serially.
func Encode(e Encoder, X [][]float64) []Hypervector {
	return encoding.EncodeAll(e, X)
}

// EncodeWorkers encodes a batch across workers parallel clones of e
// (workers ≤ 0 means GOMAXPROCS, 1 is serial). Outputs are bit-identical to
// Encode.
func EncodeWorkers(e Encoder, X [][]float64, workers int) []Hypervector {
	return encoding.EncodeAllWorkers(e, X, workers)
}

// Model is a trained HDC classification model.
type Model = classifier.Model

// BinaryModel is the packed sign-binarized inference representation derived
// from a Model by Pipeline.Binarize: one bit per dimension per class, scored
// by Hamming distance.
type BinaryModel = classifier.BinaryModel

// TrainOptions configures HDC training; zero values take the paper's
// defaults (20 retraining epochs, 16-bit classes).
type TrainOptions = classifier.Options

// SubNormGranularity is the dimension granularity of the norm2 memory's
// sub-norms (on-demand dimension reduction, §4.3.3).
const SubNormGranularity = classifier.SubNormGranularity

// TrainResult reports what a training run did: which strategy ran, how many
// epochs, and the per-epoch update/loss trajectory.
type TrainResult = classifier.TrainResult

// EpochStat is one epoch's entry in a TrainResult.
type EpochStat = classifier.EpochStat

// Trainers returns the selectable training-strategy names ("lehdc",
// "perceptron"), sorted. The empty name selects the default (perceptron).
func Trainers() []string { return classifier.TrainerNames() }

// Mode selects the inference representation for one call (see WithMode).
type Mode int

const (
	// Exact scores the integer class counters with the modified cosine
	// metric — the paper's full-precision datapath.
	Exact Mode = iota
	// Binary scores the packed sign-binarized model by Hamming distance
	// (XOR + popcount) with a binarized query — the BinHD-style limit case.
	// Requires a prior Pipeline.Binarize.
	Binary
)

// modeDefault makes a call follow the pipeline's current mode: Binary after
// Binarize, Exact otherwise.
const modeDefault Mode = -1

func (m Mode) String() string {
	switch m {
	case Exact:
		return "exact"
	case Binary:
		return "binary"
	case modeDefault:
		return "default"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Option configures one call to a Pipeline inference entry point (Predict,
// PredictAll, Accuracy) or to Cluster, which reads only WithWorkers. Option
// is an opaque value (not a closure) so building and applying options never
// allocates — the single-sample binary Predict path runs at zero
// allocations per call, and the alloc-budget gate depends on that.
type Option struct {
	kind optKind
	v    int
}

type optKind uint8

const (
	optWorkers optKind = iota + 1
	optMode
	optDims
)

type callOpts struct {
	workers int
	mode    Mode
	dims    int
}

// WithWorkers fans the call's encoding and scoring across n workers (n ≤ 0
// means GOMAXPROCS). The default is 1 (serial); results are bit-identical
// for every worker count.
func WithWorkers(n int) Option {
	return Option{kind: optWorkers, v: n}
}

// WithMode selects the inference representation for this call: Exact forces
// the integer path, Binary the packed Hamming path (an error wrapping
// ErrNotBinarized if the pipeline was never binarized). Without WithMode a
// call follows the pipeline's current mode — Binary after Binarize, Exact
// otherwise.
func WithMode(m Mode) Option {
	return Option{kind: optMode, v: int(m)}
}

// WithDims scores only the first n dimensions — the accelerator's on-demand
// dimension reduction (§4.3.3) — rounded down to the sub-norm granularity
// (minimum one chunk) and clamped to D. Zero (the default) scores every
// dimension. The exact path uses the per-chunk sub-norms (the paper's
// "updated norms" fix); the binary path's prefix Hamming needs no norms.
func WithDims(n int) Option {
	return Option{kind: optDims, v: n}
}

func applyOpts(opts []Option) callOpts {
	o := callOpts{workers: 1, mode: modeDefault}
	for _, f := range opts {
		switch f.kind {
		case optWorkers:
			o.workers = f.v
		case optMode:
			o.mode = Mode(f.v)
		case optDims:
			o.dims = f.v
		}
	}
	return o
}

// resolveMode turns a call's requested mode into Exact or Binary, defaulting
// to the pipeline's current mode and validating that binary inference has a
// binarized model to run on.
func (p *Pipeline) resolveMode(op string, o callOpts) (Mode, error) {
	m := o.mode
	if m == modeDefault {
		m = p.mode
	}
	switch m {
	case Exact:
		return Exact, nil
	case Binary:
		if p.bmodel == nil {
			return 0, fmt.Errorf("generic: %s: %w", op, ErrNotBinarized)
		}
		return Binary, nil
	}
	return 0, fmt.Errorf("generic: %s: unknown inference mode %v", op, m)
}

// Pipeline couples an encoder with a model, providing the end-to-end API a
// downstream application uses.
//
// Concurrency: a trained pipeline is safe for concurrent Predict and the
// batch scoring methods, in either inference mode — each goroutine draws a
// private encoder clone plus scratch hypervectors from an internal pool
// (encoders carry scratch state, so sharing one across goroutines would
// corrupt encodings). Methods that mutate state — Fit, Adapt, Quantize,
// Binarize — require exclusive access. Clone may run beside concurrent
// inference on its receiver, but not beside a mutator.
type Pipeline struct {
	enc     Encoder
	model   *Model
	classes int
	// bmodel is the packed binary inference representation, built by
	// Binarize and kept in sync by the mutating entry points (Adapt
	// rebinarizes the touched classes; Quantize, Scrub, and class-site fault
	// injection rebinarize wholesale; Fit drops it — retraining is an
	// explicit transition back to Exact). mode is the pipeline's default
	// inference mode, overridable per call with WithMode.
	bmodel *classifier.BinaryModel
	mode   Mode
	// states pools per-goroutine (encoder clone, scratch) pairs so Predict
	// is safe and allocation-free under concurrency. Pooled encoders share
	// enc's current hypervector material (including any injected faults),
	// so every state produces bit-identical encodings. The pool belongs to
	// that material, not to the pipeline: Clone shares it, so a freshly
	// published snapshot predicts on warm states, and it is replaced only
	// when this pipeline's material changes (level/id fault injection,
	// scrub).
	states *sync.Pool
	// faultCtl manages persistent fault state (lazily built; see
	// InjectFaults). hasChecksum records whether a loaded model file
	// carried an integrity footer.
	faultCtl    *faults.Controller
	hasChecksum bool
	// trainer is the pipeline's default training strategy, set by
	// WithTrainer (or recorded from a loaded model file). Fit uses it when
	// the call's TrainOptions leave Trainer empty; after a successful fit it
	// holds the strategy that actually trained the current model.
	trainer string
	// Model-quality observability (internal/quality). profile is the drift
	// reference built at Fit from a bounded stride-subsample of the encoded
	// training set, and rebuilt at Binarize from calibBin/calibY: that
	// subsample's sign vectors and labels, all the binary profile reads. All
	// three are immutable once built and shared (not deep-copied) across
	// Clone — the serving layer clones per adapt, and calibration data never
	// mutates. shadowEvery > 0 samples one in shadowEvery binary predicts
	// through the retained integer counters to track binary-vs-exact
	// disagreement; it is configuration, set before serving starts
	// (SetShadowSampling requires exclusive access, like Fit).
	profile     *quality.Profile
	calibBin    []*hdc.BinVec
	calibY      []int
	shadowEvery int
}

// pipeState is the per-goroutine working set of a Pipeline: an encoder
// clone (encoders are not concurrency-safe), a scratch hypervector, and a
// packed scratch vector for binarized queries.
type pipeState struct {
	enc     Encoder
	scratch Hypervector
	bin     *hdc.BinVec
}

// PipelineOption configures a Pipeline at construction.
type PipelineOption func(*Pipeline)

// WithTrainer sets the pipeline's default training strategy (see Trainers
// for the selectable names). A per-call TrainOptions.Trainer still wins; an
// unknown name surfaces as an error from Fit, not here.
func WithTrainer(name string) PipelineOption {
	return func(p *Pipeline) { p.trainer = name }
}

// NewPipeline creates an untrained pipeline for the given class count.
func NewPipeline(enc Encoder, classes int, opts ...PipelineOption) *Pipeline {
	p := &Pipeline{enc: enc, classes: classes}
	for _, f := range opts {
		f(p)
	}
	p.resetStates()
	return p
}

// resetStates installs a fresh state pool for the encoder's current
// material. Called whenever that material changes, so pooled clones never
// go stale. The pool clones a private prototype taken now rather than
// p.enc, whose material later writers replace.
func (p *Pipeline) resetStates() {
	proto := p.enc.CloneMaterial()
	d := proto.D()
	p.states = &sync.Pool{New: func() any {
		return &pipeState{enc: proto.CloneMaterial(), scratch: hdc.NewVec(d), bin: hdc.NewBinVec(d)}
	}}
}

// Encoder returns the pipeline's encoder; Model its trained model (nil
// before Fit).
func (p *Pipeline) Encoder() Encoder { return p.enc }
func (p *Pipeline) Model() *Model    { return p.model }

// Fit encodes the training set and trains the model (initialization plus
// retraining, Fig. 1) with the strategy opt.Trainer names, or the
// pipeline's WithTrainer default (else "perceptron") when it is empty. The
// encoding, initialization and calibration phases fan out across
// opt.Workers workers (0 means GOMAXPROCS, 1 forces serial), and perceptron
// retraining is scored ahead on the workers and applied in serial order;
// the trained model is bit-identical for every worker count.
//
// Shapes are validated upfront — X and Y must be the same nonempty length,
// every sample must carry the encoder's feature count, and labels must lie
// in [0, classes) — so malformed input is an error here rather than a panic
// deep inside encoding or training. It returns the training record: the
// strategy that ran, the retraining epochs actually run (early convergence
// stops before opt.Epochs), and the per-epoch update counts, loss, and
// learning rate.
func (p *Pipeline) Fit(X [][]float64, Y []int, opt TrainOptions) (TrainResult, error) {
	if err := p.validateFit(X, Y); err != nil {
		return TrainResult{}, err
	}
	if opt.Trainer == "" {
		opt.Trainer = p.trainer
	}
	sp := perf.Begin("pipeline.fit")
	esp := sp.Child("encode")
	encoded := encoding.EncodeSet(p.enc, X, opt.Workers)
	esp.End()
	tsp := sp.Child("train")
	start := telemetry.Now()
	m, res, err := classifier.TrainSet(encoded, Y, p.classes, opt, tsp)
	tsp.End()
	sp.End()
	if err != nil {
		return TrainResult{}, err
	}
	telemetry.FitNS.ObserveSince(start)
	telemetry.FitEpochs.Add(int64(res.EpochsRun))
	telemetry.FitSamples.Add(int64(len(X)))
	for _, e := range res.Epochs {
		telemetry.FitUpdates.Add(int64(e.Updates))
		telemetry.FitLossMicro.Set(int64(e.Loss * 1e6))
	}
	p.model = m
	p.trainer = res.Trainer
	// Retraining replaces the model wholesale: the binary representation is
	// dropped (re-binarizing is an explicit transition) and a fault
	// controller's guard and mask state no longer apply.
	p.bmodel = nil
	p.mode = Exact
	p.faultCtl = nil
	p.captureCalibration(encoded, Y, opt.Workers)
	return res, nil
}

// calibCap bounds the calibration subsample retained for quality profiling:
// enough samples for a stable margin distribution, small enough that a
// pipeline keeps O(calibCap·D) extra bits, not the training set.
const calibCap = 256

// captureCalibration stride-subsamples the encoded training set, builds the
// exact drift reference from its margins and keeps its sign vectors for a
// later Binarize, in one pass across workers workers. Only the packed signs
// stay: the set itself, an int8 slab or its rows, is collectable after Fit.
func (p *Pipeline) captureCalibration(set hdc.Set, Y []int, workers int) {
	n, d := set.Len(), set.D()
	stride := (n + calibCap - 1) / calibCap
	k := (n + stride - 1) / stride
	bins := make([]*hdc.BinVec, k)
	cy := make([]int, k)
	margins := make([]float64, k)
	parallel.ForChunks(workers, k, func(_, lo, hi int) {
		scratch := set.Scratch()
		for j := lo; j < hi; j++ {
			h := set.Widen(j*stride, scratch)
			_, _, margins[j] = p.model.PredictDimsMargin(h, d, true)
			bins[j] = hdc.NewBinVec(d)
			bins[j].PackSigns(h)
			cy[j] = Y[j*stride]
		}
	})
	p.calibBin, p.calibY = bins, cy
	p.profile = quality.BuildProfile(margins, cy, "exact")
}

// rebaseBinary rebuilds the drift reference from the retained calibration
// signs under the binary model, scoring it across workers workers with
// margins written by index. Margins are not comparable across
// representations — binarizing rebases the reference. Pipelines without
// calibration data (loaded model files) keep a nil profile; the serving
// monitor bootstraps a baseline from the first healthy window instead.
func (p *Pipeline) rebaseBinary(workers int) {
	if len(p.calibBin) == 0 {
		p.profile = nil
		return
	}
	margins := make([]float64, len(p.calibBin))
	parallel.For(workers, len(p.calibBin), func(_, i int) {
		_, _, margins[i] = p.bmodel.PredictDimsMargin(p.calibBin[i], p.bmodel.D())
	})
	p.profile = quality.BuildProfile(margins, p.calibY, "binary")
}

// Trainer returns the pipeline's training strategy: the name set via
// WithTrainer (or recorded in a loaded model file), updated after each fit
// to the strategy that actually trained the current model. Empty means the
// default (perceptron) and nothing has been trained or loaded yet.
func (p *Pipeline) Trainer() string { return p.trainer }

// Clone returns an independent pipeline in O(classes) — the snapshot hook
// of the serving layer's clone-modify-publish protocol: mutate the clone,
// then atomically publish it, so readers of the original never observe a
// half-applied mutation. Nothing is deep-copied; the two pipelines share
// state under three rules:
//
//   - Encoder material is immutable and shared; its writers (level/id fault
//     injection, Scrub) install fresh material on the pipeline they run on.
//   - Class rows (integer and packed) are shared copy-on-write: a writer
//     copies only the rows it touches, so an Adapt update copies two.
//   - The state pool belongs to the shared material and is shared with it;
//     a pipeline whose material changes installs its own pool.
//
// Quality calibration and the fault guard are immutable and shared too.
// Clone marks the receiver's rows shared, so it may run beside concurrent
// inference on p but not beside a mutator (or another Clone) of p.
func (p *Pipeline) Clone() *Pipeline {
	c := *p
	c.enc = p.enc.CloneMaterial()
	if p.model != nil {
		c.model = p.model.Clone()
	}
	if p.bmodel != nil {
		c.bmodel = p.bmodel.Clone()
	}
	if p.faultCtl != nil {
		c.faultCtl = p.faultCtl.CloneFor(c.model, c.enc)
	}
	return &c
}

// validateFit checks the training set's shape against the pipeline before
// any encoding work starts.
func (p *Pipeline) validateFit(X [][]float64, Y []int) error {
	if p.classes < 2 {
		return fmt.Errorf("generic: Fit: need at least 2 classes, pipeline has %d", p.classes)
	}
	if len(X) == 0 {
		return errors.New("generic: Fit: empty training set")
	}
	if len(X) != len(Y) {
		return fmt.Errorf("generic: Fit: %d samples vs %d labels", len(X), len(Y))
	}
	for i, x := range X {
		if err := checkFeatures(p.enc, "Fit", x, i); err != nil {
			return err
		}
	}
	for i, y := range Y {
		if y < 0 || y >= p.classes {
			return fmt.Errorf("generic: Fit: label %d at sample %d out of range [0,%d)", y, i, p.classes)
		}
	}
	return nil
}

// checkFeatures validates one sample against the encoder: its width, and
// that every feature is finite. A NaN or ±Inf would quantize to an edge
// level and pass for data, and an Adapt would learn from it. It turns what
// would be an encoding panic or a silent answer into a caller error naming
// the op, the sample and the feature. A negative index means a
// single-sample entry point.
func checkFeatures(enc Encoder, op string, x []float64, i int) error {
	if want := enc.Config().Features; len(x) != want {
		return fmt.Errorf("generic: %s: %s has %d features, encoder expects %d", op, sampleName(i), len(x), want)
	}
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("generic: %s: %s feature %d: non-finite value %v", op, sampleName(i), j, v)
		}
	}
	return nil
}

// sampleName names sample i in an error, or "input" for a single sample.
func sampleName(i int) string {
	if i < 0 {
		return "input"
	}
	return fmt.Sprintf("sample %d", i)
}

// Predict classifies one input. Safe for concurrent use on a trained
// pipeline. It returns ErrNotTrained (wrapped) before Fit, and an error on
// a feature-width mismatch. WithMode selects the inference representation
// (defaulting to the pipeline's current mode) and WithDims reduces the
// scored dimensions; a single sample has nothing to fan out, so WithWorkers
// has no effect here.
func (p *Pipeline) Predict(x []float64, opts ...Option) (int, error) {
	c, _, err := p.predictOne("Predict", x, opts)
	return c, err
}

// PredictMargin is Predict also returning the normalized top-2 confidence
// margin in [0,1] — the quality signal the scoring loop computes for free
// (score gap in Exact mode, Hamming gap over scored dimensions in Binary).
// Zero means the decision was a coin flip; serving surfaces the margin's
// rolling distribution on /quality.
func (p *Pipeline) PredictMargin(x []float64, opts ...Option) (int, float64, error) {
	return p.predictOne("PredictMargin", x, opts)
}

// predictOne is the validated single-sample core of Predict/PredictMargin.
func (p *Pipeline) predictOne(op string, x []float64, opts []Option) (int, float64, error) {
	if err := p.trained(op); err != nil {
		return 0, 0, err
	}
	if err := checkFeatures(p.enc, op, x, -1); err != nil {
		return 0, 0, err
	}
	o := applyOpts(opts)
	mode, err := p.resolveMode(op, o)
	if err != nil {
		return 0, 0, err
	}
	dims := o.dims
	if dims <= 0 {
		dims = p.model.D()
	}
	sp := perf.Begin("pipeline.predict")
	st := p.states.Get().(*pipeState)
	c, margin := p.predictSample(sp, st, x, mode, dims)
	p.states.Put(st)
	sp.End()
	return c, margin, nil
}

// predictSample is the per-sample body of every served predict, single or
// batch, and the only place one is recorded: encode_ns times the encode,
// predict_ns the pure kernel's score, and quality.Default gets one predict
// before the binary path's shadow sample. A tracing sp gains encode and
// score children.
func (p *Pipeline) predictSample(sp *perf.Span, st *pipeState, x []float64, mode Mode, dims int) (c int, margin float64) {
	esp := sp.Child("encode")
	start := telemetry.Now()
	if mode == Binary {
		st.enc.EncodeBin(x, st.bin)
	} else {
		st.enc.Encode(x, st.scratch)
	}
	encoded := telemetry.Now()
	esp.End()
	ssp := sp.Child("score")
	if mode == Binary {
		c, _, margin = p.bmodel.PredictDimsMargin(st.bin, dims)
	} else {
		c, _, margin = p.model.PredictDimsMargin(st.scratch, dims, true)
	}
	ssp.End()
	telemetry.EncodeNS.Observe(encoded - start)
	telemetry.PredictNS.ObserveSince(encoded)
	quality.Default.ObservePredict(c, margin)
	if mode == Binary {
		p.maybeShadow(st, x, dims, c)
	}
	return c, margin
}

// maybeShadow re-scores one in shadowEvery binary predicts through the
// retained integer counters and records whether the representations agree —
// the production cost probe of the binary fast path.
func (p *Pipeline) maybeShadow(st *pipeState, x []float64, dims, binPred int) {
	every := p.shadowEvery
	if every <= 0 || p.model == nil {
		return
	}
	if quality.Default.ShadowTick()%int64(every) != 0 {
		return
	}
	st.enc.Encode(x, st.scratch)
	ec, _, _ := p.model.PredictDimsMargin(st.scratch, dims, true)
	quality.Default.ObserveShadow(ec == binPred)
}

// SetShadowSampling enables shadow-mode disagreement tracking: every'th
// binary predict (globally across goroutines) is re-scored through the
// retained integer counters, feeding the shadow series of /quality and
// /metrics. Zero or negative disables. Configuration, not a hot-path
// control: call it before serving starts, with the same exclusive access as
// Fit (Clone propagates it to snapshots).
func (p *Pipeline) SetShadowSampling(every int) {
	if every < 0 {
		every = 0
	}
	p.shadowEvery = every
}

// ShadowEvery returns the shadow-sampling interval (0: disabled).
func (p *Pipeline) ShadowEvery() int { return p.shadowEvery }

// QualityProfile is the drift reference distribution captured at
// Fit/Binarize: the bucketed margin distribution and class priors the
// serving monitor compares rolling windows against (see internal/quality).
type QualityProfile = quality.Profile

// QualityProfile returns the drift reference profile captured at
// Fit/Binarize, or nil when the pipeline carries no calibration data (e.g.
// loaded from a model file) — the serving monitor then bootstraps a
// baseline from the first healthy window.
func (p *Pipeline) QualityProfile() *QualityProfile { return p.profile }

// PredictAll classifies a batch of inputs, returning predictions in input
// order. Encoding and scoring fan out across WithWorkers(n) workers
// (default serial); WithMode and WithDims select the representation and
// scored dimensions as in Predict. Predictions are bit-identical to calling
// Predict per input for every worker count.
func (p *Pipeline) PredictAll(X [][]float64, opts ...Option) ([]int, error) {
	dst := make([]int, len(X))
	if err := p.PredictAllInto(dst, X, opts...); err != nil {
		return nil, err
	}
	return dst, nil
}

// PredictAllInto is PredictAll writing predictions into a caller-provided
// slice of len(X) — the steady-state zero-allocation batch path: each
// worker streams its contiguous chunk through pooled scratch (query in,
// label out) and no per-sample hypervector is ever materialized.
func (p *Pipeline) PredictAllInto(dst []int, X [][]float64, opts ...Option) error {
	if err := p.trained("PredictAllInto"); err != nil {
		return err
	}
	if len(dst) != len(X) {
		return fmt.Errorf("generic: PredictAllInto: dst length %d, want %d", len(dst), len(X))
	}
	for i, x := range X {
		if err := checkFeatures(p.enc, "PredictAllInto", x, i); err != nil {
			return err
		}
	}
	o := applyOpts(opts)
	mode, err := p.resolveMode("PredictAllInto", o)
	if err != nil {
		return err
	}
	p.predictAllInto(dst, X, mode, o)
	return nil
}

// predictAllInto is the validated core of the batch predictors.
func (p *Pipeline) predictAllInto(dst []int, X [][]float64, mode Mode, o callOpts) {
	dims := o.dims
	if dims <= 0 {
		dims = p.model.D()
	}
	sp := perf.Begin("pipeline.predict_all")
	defer sp.End()
	w := parallel.Workers(o.workers)
	if w > len(X) {
		w = len(X)
	}
	if w <= 1 {
		// Serial fast path without the chunk closure: with a warm state pool
		// the steady-state batch allocates nothing.
		st := p.states.Get().(*pipeState)
		p.predictChunk(st, dst, X, mode, dims)
		p.states.Put(st)
		return
	}
	parallel.ForChunks(w, len(X), func(_, lo, hi int) {
		st := p.states.Get().(*pipeState)
		p.predictChunk(st, dst[lo:hi], X[lo:hi], mode, dims)
		p.states.Put(st)
	})
}

// predictChunk classifies X into dst with one pooled working set. Every
// encode goes through st, never through p.enc, whose scratch belongs to the
// exclusive-access entry points.
func (p *Pipeline) predictChunk(st *pipeState, dst []int, X [][]float64, mode Mode, dims int) {
	for i, x := range X {
		dst[i], _ = p.predictSample(nil, st, x, mode, dims)
	}
}

// Adapt performs one online-learning step: classify x and, when the
// prediction disagrees with label, apply the retraining update. It returns
// the pre-update prediction and whether the model changed — the streaming
// lifelong-learning path of the paper's IoT-gateway scenario. Adapt mutates
// the model and therefore requires exclusive access.
func (p *Pipeline) Adapt(x []float64, label int) (pred int, updated bool, err error) {
	if err := p.trained("Adapt"); err != nil {
		return 0, false, err
	}
	if err := checkFeatures(p.enc, "Adapt", x, -1); err != nil {
		return 0, false, err
	}
	if label < 0 || label >= p.classes {
		return 0, false, fmt.Errorf("generic: Adapt: label %d out of range [0,%d)", label, p.classes)
	}
	sp := perf.Begin("pipeline.adapt")
	st := p.states.Get().(*pipeState)
	start := telemetry.Now()
	st.enc.Encode(x, st.scratch)
	encoded := telemetry.Now()
	pred, updated = p.model.Adapt(st.scratch, label)
	telemetry.AdaptNS.ObserveSince(encoded)
	telemetry.EncodeNS.Observe(encoded - start)
	p.states.Put(st)
	sp.End()
	// The predict-before-apply doubles as a streaming accuracy sample: the
	// label arrived with the request, so correctness costs nothing extra.
	quality.Default.ObserveAdapt(label, pred == label)
	if updated {
		telemetry.AdaptUpdates.Inc()
		if p.bmodel != nil {
			// The update touched exactly the mispredicted and correct
			// classes; re-derive just their packed vectors.
			p.bmodel.RebinarizeClass(p.model, pred)
			p.bmodel.RebinarizeClass(p.model, label)
		}
		p.invalidateGuard()
	}
	return pred, updated, nil
}

// accuracyBlock bounds how many samples Accuracy encodes at once, so
// scoring a large set streams through a constant memory footprint instead
// of materializing every hypervector.
const accuracyBlock = 2048

// Accuracy scores the pipeline on a labelled set. Encoding and scoring fan
// out across WithWorkers(n) workers (default serial), with WithMode and
// WithDims selecting the representation and scored dimensions; samples
// stream through in bounded blocks, and the result is bit-identical for
// every worker count. X and Y must be the same length.
func (p *Pipeline) Accuracy(X [][]float64, Y []int, opts ...Option) (float64, error) {
	if err := p.trained("Accuracy"); err != nil {
		return 0, err
	}
	if len(X) != len(Y) {
		return 0, fmt.Errorf("generic: Accuracy: %d samples vs %d labels", len(X), len(Y))
	}
	if len(X) == 0 {
		return 0, nil
	}
	for i, x := range X {
		if err := checkFeatures(p.enc, "Accuracy", x, i); err != nil {
			return 0, err
		}
	}
	o := applyOpts(opts)
	mode, err := p.resolveMode("Accuracy", o)
	if err != nil {
		return 0, err
	}
	preds := make([]int, accuracyBlock)
	correct := 0
	for lo := 0; lo < len(X); lo += accuracyBlock {
		hi := lo + accuracyBlock
		if hi > len(X) {
			hi = len(X)
		}
		blk := preds[:hi-lo]
		p.predictAllInto(blk, X[lo:hi], mode, o)
		for i, pred := range blk {
			if pred == Y[lo+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(X)), nil
}

// Binarize derives the packed binary inference representation from the
// trained integer model and switches the pipeline's default inference mode
// to Binary — the explicit mode transition of the inference-mode API. The
// integer counters are retained: Adapt keeps learning on them (rebinarizing
// the classes it touches), and WithMode(Exact) still scores them directly.
// Requires exclusive access, like Fit.
func (p *Pipeline) Binarize() error {
	if err := p.trained("Binarize"); err != nil {
		return err
	}
	p.bmodel = classifier.Binarize(p.model)
	p.mode = Binary
	// The margin distribution changes representation with the mode; rebase
	// the drift reference on the retained calibration subsample (no-op when
	// none exists, e.g. a loaded model file).
	p.rebaseBinary(1)
	return nil
}

// Binarized reports whether the pipeline carries a binary model (and thus
// defaults to Binary mode). Mode returns the pipeline's default inference
// mode, as set by Binarize / Fit and overridable per call with WithMode.
func (p *Pipeline) Binarized() bool { return p.bmodel != nil }
func (p *Pipeline) Mode() Mode      { return p.mode }

// BinaryModel returns the pipeline's packed binary model (nil before
// Binarize).
func (p *Pipeline) BinaryModel() *BinaryModel { return p.bmodel }

// trained guards the exported entry points: using a pipeline before Fit is
// a caller error reported as a wrapped ErrNotTrained, not a panic (panics
// remain reserved for internal invariants).
func (p *Pipeline) trained(op string) error {
	if p.model == nil {
		return fmt.Errorf("generic: %s: %w", op, ErrNotTrained)
	}
	return nil
}

// invalidateGuard drops the fault controller's class-memory CRC reference
// after a legitimate model mutation.
func (p *Pipeline) invalidateGuard() {
	if p.faultCtl != nil {
		p.faultCtl.InvalidateGuard()
	}
}

// ---------------------------------------------------------------------------
// Fault injection & self-repair (see internal/faults).

// FaultSpec describes one reproducible fault process; FaultSite selects the
// targeted Fig. 4 memory and FaultModel the corruption model.
type FaultSpec = faults.Spec

// FaultSite identifies an accelerator memory.
type FaultSite = faults.Site

// The injectable fault sites. Input and datapath faults are transient and
// only exist on the Accelerator (the software pipeline has no input memory
// or adder tree).
const (
	FaultSiteClass = faults.SiteClass
	FaultSiteLevel = faults.SiteLevel
	FaultSiteID    = faults.SiteID
	FaultSiteNorm  = faults.SiteNorm
	FaultSiteInput = faults.SiteInput
	FaultSiteDP    = faults.SiteDatapath
)

// FaultModel selects a corruption model.
type FaultModel = faults.Kind

// The fault models.
const (
	FaultUniform  = faults.Uniform
	FaultStuckAt0 = faults.StuckAt0
	FaultStuckAt1 = faults.StuckAt1
	FaultBurst    = faults.Burst
	FaultBankFail = faults.BankFail
)

// FaultHealth summarizes injected-fault state; FaultScrubReport one
// scrub-and-repair pass.
type FaultHealth = faults.Health

// FaultScrubReport summarizes a Scrub pass.
type FaultScrubReport = faults.ScrubReport

// ParseFaultSite and ParseFaultModel parse the CLI names ("class", "level",
// …; "uniform", "stuck0", …).
func ParseFaultSite(s string) (FaultSite, error)   { return faults.ParseSite(s) }
func ParseFaultModel(s string) (FaultModel, error) { return faults.ParseKind(s) }

// faultController lazily builds the pipeline's fault controller.
func (p *Pipeline) faultController() *faults.Controller {
	if p.faultCtl == nil {
		p.faultCtl = faults.NewController(p.model, p.enc)
	}
	return p.faultCtl
}

// InjectFaults applies one persistent fault spec (class, level, id, or norm
// site) to the trained pipeline and returns the number of bits changed.
// Same spec, same state ⇒ bit-identical corruption. Input/datapath sites
// are transient and only exist on the Accelerator. Requires exclusive
// access, like Fit.
func (p *Pipeline) InjectFaults(spec FaultSpec) (int, error) {
	if err := p.trained("InjectFaults"); err != nil {
		return 0, err
	}
	ctl := p.faultController()
	n, err := ctl.Inject(spec)
	if err != nil {
		return n, err
	}
	telemetry.FaultInjections.Inc()
	telemetry.FaultBits.Add(int64(n))
	telemetry.FaultPending.Set(int64(ctl.Health().PendingFaults))
	if spec.Site == faults.SiteLevel || spec.Site == faults.SiteID {
		// Pooled encoder clones predate the corruption; rebuild them from
		// the primary encoder's now-corrupted material.
		p.resetStates()
	}
	if spec.Site == faults.SiteClass && p.bmodel != nil {
		// The binary model mirrors the integer counters; corrupted counters
		// re-binarize so both representations see the same damage. (The
		// resilience experiment additionally injects into the packed words
		// directly, via faults.BinaryClassMem.)
		p.bmodel = classifier.Binarize(p.model)
	}
	return n, nil
}

// Scrub runs the detection-and-repair pass: level/id material regenerates
// from the stored seed, CRC-guarded class memory masks dead lanes and
// quarantines unrecoverable rows, and norms are recomputed. See
// FaultScrubReport for what was repaired.
func (p *Pipeline) Scrub() (FaultScrubReport, error) {
	if err := p.trained("Scrub"); err != nil {
		return FaultScrubReport{}, err
	}
	sp := perf.Begin("pipeline.scrub")
	ctl := p.faultController()
	start := telemetry.Now()
	rep := ctl.Scrub()
	telemetry.ScrubNS.ObserveSince(start)
	telemetry.Scrubs.Inc()
	telemetry.FaultPending.Set(0)
	telemetry.FaultMaskedLanes.Set(int64(ctl.MaskedLaneCount()))
	p.resetStates()
	if p.bmodel != nil {
		p.bmodel = classifier.Binarize(p.model)
	}
	sp.End()
	return rep, nil
}

// Health reports the pipeline's current fault state.
func (p *Pipeline) Health() (FaultHealth, error) {
	if err := p.trained("Health"); err != nil {
		return FaultHealth{}, err
	}
	return p.faultController().Health(), nil
}

// ClusterResult is the outcome of HDC clustering.
type ClusterResult = cluster.HDCResult

// Cluster runs k-centroid HDC clustering over raw inputs using the given
// encoder (§2.1/§4.2.3) for epochs epochs (at least one; the result's Epochs
// reports how many ran). WithWorkers fans the encoding and the per-epoch
// assignment scans across n workers (default serial); assignments and
// centroids are bit-identical for every worker count. k must lie in
// [1, len(X)] and every row must carry the encoder's feature count.
func Cluster(enc Encoder, X [][]float64, k, epochs int, opts ...Option) (*ClusterResult, error) {
	if k < 1 || k > len(X) {
		return nil, fmt.Errorf("generic: Cluster: k=%d out of range [1,%d]", k, len(X))
	}
	for i, x := range X {
		if err := checkFeatures(enc, "Cluster", x, i); err != nil {
			return nil, err
		}
	}
	workers := applyOpts(opts).workers
	return cluster.HDC(encoding.EncodeAllWorkers(enc, X, workers), k, epochs, workers), nil
}

// KMeans exposes the classical baseline clusterer (Lloyd's algorithm with
// k-means++ seeding and restarts). k must lie in [1, len(X)], every row
// must have X[0]'s width, and every feature must be finite: one NaN or ±Inf
// would make a centroid and the inertia NaN.
func KMeans(X [][]float64, k, maxIter, restarts int, seed uint64) (*cluster.KMeansResult, error) {
	if k < 1 || k > len(X) {
		return nil, fmt.Errorf("generic: KMeans: k=%d out of range [1,%d]", k, len(X))
	}
	for i, x := range X {
		if len(x) != len(X[0]) {
			return nil, fmt.Errorf("generic: KMeans: sample %d has %d features, sample 0 has %d", i, len(x), len(X[0]))
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("generic: KMeans: sample %d feature %d: non-finite value %v", i, j, v)
			}
		}
	}
	return cluster.KMeansBest(X, k, maxIter, restarts, seed), nil
}

// NMI is the normalized mutual information between two labelings.
func NMI(a, b []int) float64 { return metrics.NMI(a, b) }

// ---------------------------------------------------------------------------
// Hardware model.

// Spec mirrors the accelerator's spec port (§4.1).
type Spec = sim.Spec

// Accelerator is the cycle-level model of the GENERIC ASIC.
type Accelerator = sim.Accelerator

// Stats is the accelerator's activity accounting.
type Stats = sim.Stats

// Hardware operation modes.
const (
	ModeInference = sim.Inference
	ModeTrain     = sim.Train
	ModeCluster   = sim.Cluster
)

// NewAccelerator builds an accelerator with the given quantization range.
func NewAccelerator(spec Spec, seed uint64, lo, hi float64) (*Accelerator, error) {
	return sim.NewWithRange(spec, seed, lo, hi)
}

// PowerConfig selects the energy-reduction state for Energy.
type PowerConfig = power.Config

// EnergyReport is the energy accounting of a simulated workload.
type EnergyReport = power.Report

// Energy turns accelerator statistics into joules under the given
// configuration (gating, voltage over-scaling, bit-width masking).
func Energy(st Stats, cfg PowerConfig) EnergyReport {
	return power.Energy(st, cfg)
}

// VOSForBER returns the voltage-over-scaling operating point for a target
// class-memory bit-error rate (§4.3.4).
func VOSForBER(ber float64) power.VOSPoint { return power.VOSForBER(ber) }

// StaticPowerW returns the accelerator's static power in watts under the
// given gating/voltage configuration (0.25 mW worst case; ~0.09 mW at the
// benchmarks' average bank occupancy).
func StaticPowerW(cfg PowerConfig) float64 { return power.StaticPowerW(cfg) }

// ActivityTimeline records the accelerator's per-phase activity when
// installed via Accelerator.SetTracer; it renders utilization summaries,
// ASCII occupancy strips, and VCD waveforms.
type ActivityTimeline = trace.Timeline

// ---------------------------------------------------------------------------
// Benchmarks.

// Dataset is a synthetic classification benchmark (see internal/dataset for
// the construction each benchmark uses).
type Dataset = dataset.Dataset

// ClusterSet is a synthetic clustering benchmark.
type ClusterSet = dataset.ClusterSet

// Datasets returns the names of the eleven classification benchmarks of
// Table 1; ClusterSets the clustering benchmarks of Table 2 / Figure 10.
func Datasets() []string    { return dataset.Names() }
func ClusterSets() []string { return dataset.ClusterNames() }

// LoadDataset generates the named classification benchmark.
func LoadDataset(name string, seed uint64) (*Dataset, error) {
	return dataset.Load(name, seed)
}

// LoadClusterSet generates the named clustering benchmark.
func LoadClusterSet(name string, seed uint64) (*ClusterSet, error) {
	return dataset.LoadCluster(name, seed)
}

// CSVOptions controls parsing of labelled CSV data (label column +
// float features), the format cmd/generic-datagen emits.
type CSVOptions = dataset.CSVOptions

// LoadCSV parses a labelled CSV file into a Dataset, so the pipeline can
// run on real data alongside the synthetic benchmarks.
func LoadCSV(path string, opt CSVOptions) (*Dataset, error) {
	return dataset.LoadCSVFile(path, opt)
}

// EncoderForDataset builds the encoder configuration the experiments use
// for a benchmark: the paper's defaults with the dataset's quantization
// range and its prescribed id setting.
func EncoderForDataset(kind EncodingKind, ds *Dataset, d int, seed uint64) (Encoder, error) {
	if ds == nil {
		return nil, fmt.Errorf("generic: nil dataset")
	}
	return encoding.New(kind, dataset.EncoderConfig(ds, d, seed))
}
