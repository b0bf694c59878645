package main

// The traced replay: the workload's request sequence run in process on one
// goroutine, in the order cmd/generic-serve makes its calls, with a span
// around each call into a layer's public function. Where the daemon calls a
// composite (PredictMargin, PredictAll, Core.Adapt), the composite is timed
// as the parent span and its parts are then replayed as child spans on the
// same input against the same snapshot (or a throwaway clone of it), so a
// composite's self time is the work no child accounts for.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/perf"
	"github.com/edge-hdc/generic/internal/serve"
)

// spanNames are the per-layer spans, grouped by the module that owns the
// timed function: cmd/generic-serve's HTTP handling, internal/serve,
// the generic facade, internal/encoding and internal/classifier.
var spanNames = []string{
	"serve_http.decode", "serve_http.respond",
	"serve.current", "serve.adapt", "serve.wal_append", "serve.checkpoint",
	"generic.predict", "generic.predict_all", "generic.clone", "generic.adapt", "generic.fit", "generic.load",
	"encoding.encode", "encoding.encode_bin", "encoding.encode_all",
	"classifier.score", "classifier.score_bin", "classifier.score_batch",
}

// composites are the spans whose parts are replayed as their children.
var composites = map[string]bool{"generic.predict": true, "generic.predict_all": true, "serve.adapt": true}

const (
	checkpointEvery = 1024 // generic-serve's -checkpoint-every default
	adaptReplays    = 2048 // adapt-mix replays this many adapt+predict pairs
	traceCapacity   = 1 << 17
)

// replayer runs one pass of a workload's requests against an in-process
// serving core.
type replayer struct {
	t       *perf.Tracer
	core    *serve.Core
	scratch generic.Hypervector
	bin     *hdc.BinVec
	wal     *serve.WAL // scratch WAL the wal_append child writes
	ckpt    string     // scratch checkpoint the checkpoint child writes
	seq     uint64

	adapts, updates int
	cloneBytes      uint64
}

// decodeBody decodes a request body the way generic-serve does.
func decodeBody(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// respond encodes a response the way generic-serve does.
func respond(root *perf.Span, v any) error {
	sp := root.Child("serve_http.respond")
	defer sp.End()
	return json.NewEncoder(io.Discard).Encode(v)
}

func (r *replayer) predict(req *request) error {
	root := r.t.Begin("request")
	defer root.End()
	var body predictBody
	sp := root.Child("serve_http.decode")
	err := decodeBody(req.body, &body)
	sp.End()
	if err != nil {
		return err
	}
	sp = root.Child("serve.current")
	p := r.core.Current().Pipeline
	sp.End()

	var resp predictResponse
	if body.Xs != nil {
		comp := root.Child("generic.predict_all")
		labels, err := p.PredictAll(body.Xs, generic.WithWorkers(workers))
		comp.End()
		if err != nil {
			return err
		}
		// A binarized pipeline streams each row through EncodeBin and the
		// Hamming scorer inside PredictAll; no public batch call replays
		// that, so its batch has no children.
		if p.Mode() == generic.Exact {
			c := comp.Child("encoding.encode_all")
			encoded := generic.EncodeWorkers(p.Encoder(), body.Xs, workers)
			c.End()
			c = comp.Child("classifier.score_batch")
			p.Model().PredictDimsBatch(encoded, dims, true, workers)
			c.End()
		}
		resp.Labels = labels
	} else {
		comp := root.Child("generic.predict")
		label, _, err := p.PredictMargin(body.X)
		comp.End()
		if err != nil {
			return err
		}
		if p.Mode() == generic.Binary {
			be, _ := encoding.AsBinary(p.Encoder()) // every library encoder has a binary path
			c := comp.Child("encoding.encode_bin")
			be.EncodeBin(body.X, r.bin)
			c.End()
			c = comp.Child("classifier.score_bin")
			p.BinaryModel().PredictDimsMargin(r.bin, dims)
			c.End()
		} else {
			c := comp.Child("encoding.encode")
			p.Encoder().Encode(body.X, r.scratch)
			c.End()
			c = comp.Child("classifier.score")
			p.Model().PredictDimsMargin(r.scratch, dims, true)
			c.End()
		}
		resp.Label = &label
	}
	if err := respond(root, resp); err != nil || req.want == nil {
		return err
	}
	return matchLabels(resp, req.want)
}

func (r *replayer) adapt(req *request) error {
	root := r.t.Begin("request")
	defer root.End()
	var body adaptBody
	sp := root.Child("serve_http.decode")
	err := decodeBody(req.body, &body)
	sp.End()
	if err != nil {
		return err
	}
	before := r.core.Current() // the snapshot Core.Adapt clones
	comp := root.Child("serve.adapt")
	pred, updated, err := r.core.Adapt(body.X, body.Label)
	comp.End()
	if err != nil {
		return err
	}
	r.seq++
	r.adapts++
	if updated {
		r.updates++
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c := comp.Child("generic.clone")
	clone := before.Pipeline.Clone()
	c.End()
	runtime.ReadMemStats(&m1)
	r.cloneBytes += m1.TotalAlloc - m0.TotalAlloc

	c = comp.Child("generic.adapt")
	_, _, err = clone.Adapt(body.X, body.Label)
	c.End()
	if err != nil {
		return err
	}
	c = comp.Child("serve.wal_append")
	err = r.wal.Append(serve.Record{Seq: r.seq, Label: body.Label, X: body.X})
	c.End()
	if err != nil {
		return err
	}
	if r.seq%checkpointEvery == 0 {
		c = comp.Child("serve.checkpoint")
		err = serve.WriteCheckpoint(r.ckpt, r.core.Current().Pipeline, r.seq)
		c.End()
		if err != nil {
			return err
		}
	}
	return respond(root, adaptResponse{Pred: pred, Updated: updated})
}

// replayPass runs the workload's replay sequence once against a fresh core
// over base and returns the wall time of its lead requests. The accuracy
// probe, the one batch /predict every workload sends, follows untimed, so
// the batch path has its spans too.
func replayPass(w workload, base *generic.Pipeline, tr *traffic, t *perf.Tracer, dir string) (*replayer, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	opts := serve.Options{}
	if w.kind == adaptKind {
		opts = serve.Options{Dir: dir, Sync: serve.SyncNone, CheckpointEvery: checkpointEvery}
	}
	core, err := serve.Open(base, opts)
	if err != nil {
		return nil, 0, err
	}
	defer core.Close()
	r := &replayer{t: t, core: core, scratch: make(generic.Hypervector, dims), bin: hdc.NewBinVec(dims),
		ckpt: filepath.Join(dir, "scratch.ckpt")}
	if w.kind == adaptKind {
		wal, _, _, err := serve.OpenWAL(filepath.Join(dir, "scratch.wal"), serve.SyncNone)
		if err != nil {
			return nil, 0, err
		}
		defer wal.Close()
		r.wal = wal
	}

	// Every pass starts from a collected heap, so the garbage of the
	// previous pass's probe is not charged to this one.
	runtime.GC()
	start := time.Now()
	if w.kind == adaptKind {
		for i := 0; i < adaptReplays; i++ {
			if err := r.adapt(&tr.lead[i]); err != nil {
				return nil, 0, fmt.Errorf("replaying adapt %d: %w", i, err)
			}
			if err := r.predict(&tr.side[i]); err != nil {
				return nil, 0, fmt.Errorf("replaying predict %d: %w", i, err)
			}
		}
	} else {
		for i := range tr.lead {
			if err := r.predict(&tr.lead[i]); err != nil {
				return nil, 0, fmt.Errorf("replaying request %d: %w", i, err)
			}
		}
	}
	d := time.Since(start)
	if err := r.predict(&tr.probe); err != nil {
		return nil, 0, fmt.Errorf("replaying the probe: %w", err)
	}
	return r, d, nil
}

// spanStats summarizes every recorded span of one name.
type spanStats struct {
	count       int
	p50us       float64
	busyms      float64
	selfP50us   float64 // composites: median of duration minus children
	childBusyms float64 // total duration of the span's children
}

// layerStats folds span records into per-name statistics.
func layerStats(recs []perf.Record) map[string]*spanStats {
	childNS := map[uint64]int64{}
	for _, r := range recs {
		if r.Parent != 0 {
			childNS[r.Parent] += r.Dur
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	out := map[string]*spanStats{}
	for _, r := range recs {
		s := out[r.Name]
		if s == nil {
			s = &spanStats{}
			out[r.Name] = s
		}
		s.count++
		s.busyms += float64(r.Dur) / 1e6
		s.childBusyms += float64(childNS[r.ID]) / 1e6
		durs[r.Name] = append(durs[r.Name], float64(r.Dur)/1e3)
		selfs[r.Name] = append(selfs[r.Name], float64(r.Dur-childNS[r.ID])/1e3)
	}
	for name, s := range out {
		s.p50us = perf.Quantile(durs[name], 0.5)
		s.selfP50us = perf.Quantile(selfs[name], 0.5)
	}
	return out
}

// layerReport replays the workload three times — a warm-up with spans off,
// then spans on, then off — and fills the per-layer metrics from the traced
// pass, the overhead from the last two passes, and the daemon.* deltas and
// transport time from the HTTP run m.
func layerReport(res *result, w workload, base *generic.Pipeline, tr *traffic, t *perf.Tracer, m *measurement, dir string) error {
	var traced *replayer
	var on, off time.Duration
	for pass := 0; pass < 3; pass++ {
		if pass == 1 {
			t.Enable()
		}
		r, d, err := replayPass(w, base, tr, t, dir)
		t.Disable()
		if err != nil {
			return err
		}
		switch pass {
		case 1:
			traced, on = r, d
		case 2:
			off = d
		}
	}
	stats := layerStats(t.Snapshot())
	get := func(name string) spanStats {
		if s := stats[name]; s != nil {
			return *s
		}
		return spanStats{}
	}
	for _, name := range spanNames {
		s := get(name)
		res.set(name+".count", float64(s.count), s.count, "")
		res.set(name+".p50_us", s.p50us, s.count, "")
		res.set(name+".busy_ms", s.busyms, s.count, "")
		if composites[name] {
			res.set(name+".self_p50_us", s.selfP50us, s.count, "duration minus children")
		}
	}
	clones := get("generic.clone").count
	res.set("generic.clone.bytes_per_op", float64(traced.cloneBytes)/float64(max(clones, 1)), clones, "allocated per Clone")
	pr := get("generic.predict")
	res.set("generic.predict.children_frac", pr.childBusyms/max(pr.busyms, 1e-9), pr.count, "encode + score over PredictMargin")
	res.set("serve.adapt.updated_ratio", float64(traced.updates)/float64(max(traced.adapts, 1)), traced.adapts, "adapts that changed the model")

	// Transport is what the lead request's latency over HTTP leaves after
	// the in-process spans on its path.
	path := []string{"serve_http.decode", "serve.current", "generic.predict", "serve_http.respond"}
	if w.kind == adaptKind {
		path = []string{"serve_http.decode", "serve.adapt", "serve_http.respond"}
	}
	inProcess := 0.0
	for _, name := range path {
		inProcess += get(name).p50us
	}
	res.set("serve_http.transport_us", m.lead.p50*1e3-inProcess, m.lead.n, "lead p50 over HTTP minus "+strings.Join(path, " + "))
	res.set("trace.overhead_frac", on.Seconds()/off.Seconds()-1, 2, "traced replay over untraced, after a warm-up pass")

	for _, h := range daemonHists {
		c0, s0 := m.before.hist(h)
		c1, s1 := m.after.hist(h)
		mean := 0.0
		if c1 > c0 {
			mean = float64(s1-s0) / float64(c1-c0) / 1e3
		}
		res.set(daemonHistMetric(h), mean, int(c1-c0), "/metrics delta over the HTTP run")
	}
	for _, c := range daemonCounters {
		delta := m.after.counter(c) - m.before.counter(c)
		res.set("daemon."+c, float64(delta), int(delta), "/metrics delta over the HTTP run")
	}
	return nil
}

// writeTrace writes the tracer's spans as a Chrome trace-event file.
func writeTrace(path string, t *perf.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := perf.WriteTrace(f, append(perf.Metadata(), perf.Events(t.Snapshot())...)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
