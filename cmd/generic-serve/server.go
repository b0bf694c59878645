package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/serve"
	"github.com/edge-hdc/generic/internal/telemetry"
)

// Serve-level instruments, registered in the default registry so GET
// /metrics exposes them next to the library's encode/predict histograms.
var (
	servePredictNS = telemetry.Default.Histogram("serve_predict_ns")
	serveAdaptNS   = telemetry.Default.Histogram("serve_adapt_ns")
	serveRequests  = telemetry.Default.Counter("serve_requests_total")
	serveErrors    = telemetry.Default.Counter("serve_errors_total")
)

// maxBodyBytes bounds request payloads; a 32 MiB cap fits batches of tens of
// thousands of samples while keeping a malformed client from exhausting
// memory. The whole body is read, so bytes after the JSON object count too.
const maxBodyBytes = 32 << 20

// errOverloaded is the shed response body; it never reaches statusFor (the
// handlers write 429 directly) but gives clients a stable message.
var errOverloaded = errors.New("server overloaded, retry later")

// serverConfig carries the resilience and observability knobs from flags to
// the handler set.
type serverConfig struct {
	workers    int
	deadline   time.Duration // per-request budget; 0 disables
	maxPredict int           // in-flight /predict bound; 0 unlimited
	maxAdapt   int           // in-flight /adapt bound; 0 unlimited
	logSample  int           // log 1 in N successful predict/adapt requests; <=1 logs all
	quality    qualityConfig // drift-detector knobs (see quality.go)
}

// server is the HTTP layer over the serving core. Predict and health reads
// are lock-free (one atomic snapshot load); adapts serialize inside the
// core without ever blocking readers — there is no server-level lock at
// all, which is the point of the snapshot architecture.
type server struct {
	core        *serve.Core
	chaos       *serve.Chaos // nil unless -chaos
	cfg         serverConfig
	predictGate *serve.Gate
	adaptGate   *serve.Gate
	monitor     *qualityMonitor
	draining    atomic.Bool // set during graceful shutdown; /readyz flips to 503
}

func newServer(core *serve.Core, cfg serverConfig) *server {
	return &server{
		core:        core,
		cfg:         cfg,
		predictGate: serve.NewGate(cfg.maxPredict),
		adaptGate:   serve.NewGate(cfg.maxAdapt),
		monitor:     newQualityMonitor(core, core.Current().Pipeline.QualityProfile(), cfg.quality),
	}
}

// routes builds the daemon's mux. Every endpoint is pinned to its one
// method (405 + Allow otherwise); predict/adapt additionally run under the
// per-request deadline, and the model-facing endpoints run inside the
// structured access log (probes and scrapes stay unlogged — supervisor
// traffic would drown the signal). pprof handlers are registered explicitly
// rather than through net/http/pprof's DefaultServeMux side effects.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.logged("predict", method(http.MethodPost, s.withDeadline(s.handlePredict))))
	mux.HandleFunc("/adapt", s.logged("adapt", method(http.MethodPost, s.withDeadline(s.handleAdapt))))
	mux.HandleFunc("/quality", s.logged("quality", method(http.MethodGet, s.handleQuality)))
	mux.HandleFunc("/metrics", method(http.MethodGet, s.handleMetrics))
	mux.HandleFunc("/healthz", method(http.MethodGet, s.handleHealthz))
	mux.HandleFunc("/readyz", method(http.MethodGet, s.handleReadyz))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// method restricts a handler to one HTTP method, answering anything else
// with 405 and an Allow header.
func method(verb string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != verb {
			w.Header().Set("Allow", verb)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s required", verb))
			return
		}
		h(w, r)
	}
}

// withDeadline attaches the per-request budget to the request context, so
// slow work surfaces as 504 instead of an unbounded stall.
func (s *server) withDeadline(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.deadline <= 0 {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.deadline)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// shed answers an over-admission request: 429 with a Retry-After hint, the
// load balancer's cue to back off before latency collapses.
func shed(w http.ResponseWriter) {
	telemetry.ServeShed.Inc()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, errOverloaded)
}

// chaosDelay sleeps the chaos-injected handler latency, honoring the
// request deadline: an expired budget surfaces as the context error.
func (s *server) chaosDelay(ctx context.Context) error {
	d := s.chaos.Latency()
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// predictResponse carries "label" for single-sample requests and "labels"
// for batches. Label is a pointer so class 0 still serializes ("label":0
// would be dropped by omitempty on a plain int).
type predictResponse struct {
	Label  *int  `json:"label,omitempty"`
	Labels []int `json:"labels,omitempty"`
}

type adaptResponse struct {
	Pred    int  `json:"pred"`
	Updated bool `json:"updated"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := telemetry.Now()
	serveRequests.Inc()
	if !s.predictGate.TryAcquire() {
		shed(w)
		return
	}
	defer s.predictGate.Release()
	// A single sample (x) or a batch (xs), exactly one.
	req, err := decodeRequest(w, r, serve.PredictBody)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer req.Release()
	if err := s.chaosDelay(r.Context()); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	// One atomic load pins this request's model state; adapts published
	// while we score do not disturb it and we never take a lock.
	snap := s.core.Current()
	switch {
	case req.X != nil && req.Xs != nil:
		writeError(w, http.StatusBadRequest, errors.New(`provide "x" or "xs", not both`))
	case req.X != nil:
		label, margin, err := snap.Pipeline.PredictMargin(req.X)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		if err := r.Context().Err(); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		setMarginBucket(w, margin)
		writeJSON(w, http.StatusOK, predictResponse{Label: &label})
		servePredictNS.ObserveSince(start)
	case req.Xs != nil:
		labels, err := snap.Pipeline.PredictAll(req.Xs, generic.WithWorkers(s.cfg.workers))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		if err := r.Context().Err(); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, predictResponse{Labels: labels})
		servePredictNS.ObserveSince(start)
	default:
		writeError(w, http.StatusBadRequest, errors.New(`body needs "x" (single sample) or "xs" (batch)`))
	}
}

func (s *server) handleAdapt(w http.ResponseWriter, r *http.Request) {
	start := telemetry.Now()
	serveRequests.Inc()
	if !s.adaptGate.TryAcquire() {
		shed(w)
		return
	}
	defer s.adaptGate.Release()
	req, err := decodeRequest(w, r, serve.AdaptBody)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer req.Release()
	if req.X == nil || !req.HasLabel {
		writeError(w, http.StatusBadRequest, errors.New(`body needs "x" and "label"`))
		return
	}
	if err := s.chaosDelay(r.Context()); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	// The core WAL-logs before publishing: a 200 from here means the
	// update is durable per the fsync policy and visible to the next
	// predict snapshot.
	pred, updated, err := s.core.Adapt(req.X, req.Label)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, adaptResponse{Pred: pred, Updated: updated})
	serveAdaptNS.ObserveSince(start)
}

// handleMetrics serves the registry snapshot: JSON by default, Prometheus
// text exposition when the scraper asks for it (?format=prom, or an Accept
// header preferring text/plain — the prometheus scraper's default).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	serveRequests.Inc()
	if wantsProm(r) {
		w.Header().Set("Content-Type", telemetry.ContentType)
		if err := telemetry.Default.WriteProm(w); err != nil {
			serveErrors.Inc()
		}
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	b := telemetry.Default.AppendJSON(nil)
	b = appendSummaries(b)
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		serveErrors.Inc()
	}
}

// wantsProm decides the /metrics representation: an explicit ?format=prom
// (or =json) wins; otherwise an Accept header that mentions text/plain and
// not application/json selects the exposition format.
func wantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}

// summaryEndpoints maps each serving endpoint to its latency histogram; the
// /metrics handler derives quantile summaries from these at read time.
var summaryEndpoints = []struct {
	name string
	hist *telemetry.Histogram
}{
	{"predict", servePredictNS},
	{"adapt", serveAdaptNS},
}

// appendSummaries splices a "summaries" key into the registry's JSON object
// (which always ends in '}'): per-endpoint p50/p95/p99 latencies derived from
// the raw histogram buckets at read time. The raw buckets stay untouched so
// existing consumers of the flat metric keys keep working; quantiles are
// bucket upper bounds (conservative, at most 2x the true latency) and -1
// when the mass sits beyond the top bucket.
func appendSummaries(b []byte) []byte {
	b = b[:len(b)-1]
	b = append(b, `,"summaries":{`...)
	for i, ep := range summaryEndpoints {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `%q:{"count":%d,"p50_ns":%d,"p95_ns":%d,"p99_ns":%d}`,
			ep.name, ep.hist.Count(),
			ep.hist.Quantile(0.50), ep.hist.Quantile(0.95), ep.hist.Quantile(0.99))
	}
	return append(b, '}', '}')
}

// healthResponse mirrors the serving health machine plus the fault
// controller's detail and the snapshot lineage.
type healthResponse struct {
	Status          string `json:"status"`          // "ok", "degraded", or "failing"
	Drift           bool   `json:"drift,omitempty"` // model-quality drift alarm active
	PendingFaults   int    `json:"pending_faults"`
	MaskedLanes     []int  `json:"masked_lanes"`
	QuarantinedRows int    `json:"quarantined_rows"`
	InjectedBits    int    `json:"injected_bits"`
	EffectiveDims   int    `json:"effective_dims"`
	SnapshotVersion uint64 `json:"snapshot_version"`
	WALSeq          uint64 `json:"wal_seq"`
}

// handleHealthz reports liveness: 200 while the engine is answering — even
// degraded (that is the graceful-degradation contract: damaged, repairing,
// still serving) — and 503 only in the failing state, when durability or
// repair is broken and a supervisor should restart or drain.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	serveRequests.Inc()
	snap := s.core.Current()
	h, err := snap.Pipeline.Health()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	state := s.core.State()
	resp := healthResponse{
		Status:          state.String(),
		Drift:           s.core.Drift(),
		PendingFaults:   h.PendingFaults,
		MaskedLanes:     h.MaskedLanes,
		QuarantinedRows: h.QuarantinedRows,
		InjectedBits:    h.InjectedBits,
		EffectiveDims:   h.EffectiveDims,
		SnapshotVersion: snap.Version,
		WALSeq:          snap.Seq,
	}
	code := http.StatusOK
	if state == serve.StateFailing {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

type readyResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// handleReadyz reports readiness for load balancers: 503 while draining
// (shutdown in progress) or failing, 200 otherwise — including degraded,
// where answers may be approximate but capacity is real. Splitting this
// from /healthz lets an LB stop routing without a supervisor restart.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	serveRequests.Inc()
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, readyResponse{Ready: false, Reason: "draining"})
	case s.core.State() == serve.StateFailing:
		writeJSON(w, http.StatusServiceUnavailable, readyResponse{Ready: false, Reason: "failing"})
	default:
		writeJSON(w, http.StatusOK, readyResponse{Ready: true})
	}
}

// statusFor classifies a serving error:
//
//   - deadline expiry → 504 (the server ran out of request budget)
//   - client cancellation → 499 (nginx-style: the client went away)
//   - WAL append failure → 503 (durability broken; the update was refused,
//     not half-applied)
//   - corrupt model / untrained pipeline → 500 (our state is wrong)
//   - everything else (shape/label validation) → 400 (client's fault)
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		telemetry.ServeDeadlines.Inc()
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, serve.ErrWAL):
		return http.StatusServiceUnavailable
	case errors.Is(err, generic.ErrNotTrained), errors.Is(err, generic.ErrCorruptModel):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// statusClientClosedRequest is nginx's non-standard 499: the client closed
// the connection before the response; there is no one left to answer.
const statusClientClosedRequest = 499

// decodeRequest reads the body, capped at maxBodyBytes, into a pooled
// request and decodes it as kind (see serve.Request.Decode for the
// contract). The caller releases the request once its reply is written.
func decodeRequest(w http.ResponseWriter, r *http.Request, kind serve.Body) (*serve.Request, error) {
	req := serve.GetRequest()
	body, err := req.ReadBody(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = req.Decode(body, kind)
	}
	if err != nil {
		req.Release()
		return nil, fmt.Errorf("decoding request body: %w", err)
	}
	return req, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		serveErrors.Inc()
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	serveErrors.Inc()
	writeJSON(w, code, errorResponse{Error: err.Error()})
}
