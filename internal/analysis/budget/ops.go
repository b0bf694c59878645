package budget

import (
	"bytes"
	"encoding/json"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/perf"
	"github.com/edge-hdc/generic/internal/quality"
	"github.com/edge-hdc/generic/internal/serve"
	"github.com/edge-hdc/generic/internal/telemetry"
)

// An Op is one hot operation under an allocation budget. Run executes
// exactly one operation; all setup lives in the closure so repeated runs
// measure the steady state, not construction.
type Op struct {
	Name string
	Run  func()
	// pooled marks an op that takes its working set from a sync.Pool. A
	// -race build drops a random quarter of a pool's Puts on purpose, so
	// there such an op allocates by design: it is gated without -race only.
	pooled bool
}

// opDims keeps the measurement fixtures small but structurally real: D is a
// multiple of 64 (packed-vector words) and of classifier.SubNormGranularity.
const (
	opD        = 1024
	opFeatures = 16
	opClasses  = 4
)

// features returns a deterministic feature vector in [0,1); no RNG so the
// registry is replayable by construction.
func features(phase int) []float64 {
	x := make([]float64, opFeatures)
	for i := range x {
		x[i] = float64((i*7+phase*3)%11) / 11
	}
	return x
}

// Ops registers the hot paths the budget binds. Names are stable: they are
// the keys of ALLOC_BUDGET.json.
func Ops() []Op {
	cfg := encoding.Config{D: opD, Features: opFeatures, Lo: 0, Hi: 1, Seed: 42, UseID: true}

	// Every encoder, and every path through the windowed encoder's bundle:
	// generic is n = 3 with ids, ngram n = 3 without (the id-less shape
	// EEG serves), levelid n = 1 with ids, and generic_n4 the general XOR
	// fold. Append growth in a bundle shows only here: escape analysis
	// does not report it.
	var ops []Op
	n4 := cfg
	n4.N = 4
	for _, e := range []struct {
		name string
		kind encoding.Kind
		cfg  encoding.Config
	}{
		{"rp", encoding.RP, cfg}, {"levelid", encoding.LevelID, cfg},
		{"ngram", encoding.Ngram, cfg}, {"permute", encoding.Permute, cfg},
		{"generic", encoding.Generic, cfg}, {"generic_n4", encoding.Generic, n4},
	} {
		enc := encoding.MustNew(e.kind, e.cfg)
		x := features(int(e.kind))
		out := hdc.NewVec(enc.D())
		ops = append(ops, Op{Name: "encode/" + e.name, Run: func() { enc.Encode(x, out) }})
	}

	// A small trained model and a batch of encoded queries for the scoring
	// and online-learning paths.
	enc := encoding.MustNew(encoding.Generic, cfg)
	model := classifier.NewModel(opD, opClasses, 0)
	batch := make([]hdc.Vec, 8)
	for i := range batch {
		h := hdc.NewVec(opD)
		enc.Encode(features(i), h)
		batch[i] = h
		model.AddEncoded(h, i%opClasses)
	}
	model.RefreshAllNorms()
	query := batch[0]
	// Adapt must not update during measurement (an update would drift the
	// model across runs): feed it its own current prediction as the label.
	stableLabel, _, _ := model.PredictDimsMargin(query, opD, true)
	// Update mutates class vectors, so it runs on its own clone — the shared
	// model stays fixed and stableLabel stays Adapt's prediction.
	updModel := model.Clone()

	ops = append(ops,
		Op{Name: "model/predict_dims", Run: func() { model.PredictDimsMargin(query, opD, true) }},
		Op{Name: "model/predict_batch_w1", Run: func() { model.PredictDimsBatch(batch, opD, true, 1) }},
		Op{Name: "model/update", Run: func() { updModel.Update(query, 0, 1) }},
		Op{Name: "model/adapt_hit", Run: func() { model.Adapt(query, stableLabel) }},
	)

	// The binary inference engine: binarized encode (majority readout) and
	// packed Hamming scoring.
	bmodel := classifier.Binarize(model)
	bquery := hdc.NewBinVec(opD)
	bquery.PackSigns(query)
	bout := hdc.NewBinVec(opD)
	bx := features(0)
	ops = append(ops,
		Op{Name: "encode/generic_bin", Run: func() { enc.EncodeBin(bx, bout) }},
		Op{Name: "model/binary_predict", Run: func() { bmodel.PredictDimsMargin(bquery, opD) }},
	)

	// Snapshot cloning: the serving layer clones the live pipeline on every
	// adapt, so Clone must stay O(classes) reference copies. Deep copying
	// the encoder material and class rows again would multiply this count.
	pipe := generic.NewPipeline(encoding.MustNew(encoding.Generic, cfg), opClasses)
	pX, pY := make([][]float64, 8), make([]int, 8)
	for i := range pX {
		pX[i], pY[i] = features(i), i%opClasses
	}
	if _, err := pipe.Fit(pX, pY, classifier.Options{Epochs: 1}); err != nil {
		panic(err)
	}
	// Serving snapshots carry a fault controller; Health builds it.
	if _, err := pipe.Health(); err != nil {
		panic(err)
	}
	ops = append(ops, Op{Name: "pipeline/clone", Run: func() { pipe.Clone() }})

	// The served paths, where each predict and adapt is recorded: exact
	// Predict, binary Predict with every sample shadow re-scored, an Adapt
	// whose label is the current prediction, so the model never changes
	// across runs, and the batch PredictAllInto behind a {"xs"} /predict in
	// both modes.
	px := features(0)
	bpipe := pipe.Clone()
	if err := bpipe.Binarize(); err != nil {
		panic(err)
	}
	bpipe.SetShadowSampling(1)
	hitLabel, err := pipe.Predict(px)
	if err != nil {
		panic(err)
	}
	pdst := make([]int, len(pX))
	ops = append(ops,
		Op{Name: "pipeline/predict", Run: func() { _, _ = pipe.Predict(px) }, pooled: true},
		Op{Name: "pipeline/predict_binary", Run: func() { _, _ = bpipe.Predict(px) }, pooled: true},
		Op{Name: "pipeline/adapt_hit", Run: func() { _, _, _ = pipe.Adapt(px, hitLabel) }, pooled: true},
		Op{Name: "pipeline/predict_all_w1", Run: func() { _ = pipe.PredictAllInto(pdst, pX) }, pooled: true},
		Op{Name: "pipeline/predict_all_binary_w1", Run: func() { _ = bpipe.PredictAllInto(pdst, pX) }, pooled: true},
	)

	// Request decoding: every served /predict and /adapt body is read into
	// a pooled serve.Request and parsed there. The bodies carry 128
	// features, as ISOLET rows do, written by encoding/json: some literals
	// take the exact fast path, the 17-digit ones strconv.ParseFloat.
	x128 := make([]float64, 128)
	for i := range x128 {
		x128[i] = float64((i*37)%101)/101 - 0.5
	}
	decode := func(kind serve.Body, v any) func() {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		rd := bytes.NewReader(b)
		return func() {
			rd.Reset(b)
			req := serve.GetRequest()
			body, err := req.ReadBody(rd)
			if err == nil {
				err = req.Decode(body, kind)
			}
			if err != nil {
				panic(err)
			}
			req.Release()
		}
	}
	ops = append(ops,
		Op{Name: "serve/decode_predict", Run: decode(serve.PredictBody, map[string]any{"x": x128}), pooled: true},
		Op{Name: "serve/decode_adapt", Run: decode(serve.AdaptBody, map[string]any{"x": x128, "label": 3}), pooled: true},
	)

	// The hdc kernels under the classifier: bundling update and scoring dot.
	a, b := hdc.NewVec(opD), hdc.NewVec(opD)
	for i := range b {
		b[i] = int32(i%5) - 2
	}
	ops = append(ops,
		Op{Name: "hdc/vec_add_into", Run: func() { a.AddInto(b) }},
		Op{Name: "hdc/vec_dot", Run: func() { _ = a.Dot(b) }},
	)

	// The packed binary kernels: sign pack and Hamming distance.
	pa, pb := hdc.NewBinVec(opD), hdc.NewBinVec(opD)
	pa.PackSigns(a)
	pb.PackSigns(b)
	ops = append(ops,
		Op{Name: "hdc/binvec_pack", Run: func() { pa.PackSigns(b) }},
		Op{Name: "hdc/binvec_hamming", Run: func() { _ = pa.Hamming(pb) }},
	)

	// Telemetry and tracing fast paths: the per-sample instrumentation cost
	// every encode/predict already pays, so it must stay at zero.
	reg := telemetry.NewRegistry()
	hist := reg.Histogram("budget_test_ns")
	ctr := reg.Counter("budget_test_total")
	tracer := perf.New(16, 1)
	ops = append(ops,
		Op{Name: "telemetry/histogram_observe", Run: func() { hist.Observe(12345) }},
		Op{Name: "telemetry/counter_inc", Run: func() { ctr.Inc() }},
		Op{Name: "perf/span_disabled", Run: func() {
			sp := tracer.Begin("budget")
			sp.End()
		}},
	)

	// The model-quality observe paths ride every served predict/adapt (margin
	// observe) and the monitor cadence (ring push, drift check): all three
	// stay allocation-free so observability never costs the hot path.
	obs := quality.NewObserver()
	det := quality.NewDetector(quality.BuildProfile(
		[]float64{0.1, 0.4, 0.7}, []int{0, 1, 2}, "exact"))
	det.MinSamples = 1
	var driftStats quality.Stats
	for i := 0; i < 8; i++ {
		obs.ObservePredict(i%opClasses, 0.125)
	}
	driftStats = obs.Total()
	ops = append(ops,
		Op{Name: "quality/margin_observe", Run: func() { obs.ObservePredict(1, 0.125) }},
		Op{Name: "quality/ring_push", Run: func() { obs.Rotate() }},
		Op{Name: "quality/drift_check", Run: func() { det.Check(&driftStats) }},
	)
	return ops
}
