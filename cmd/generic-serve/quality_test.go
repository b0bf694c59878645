package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/edge-hdc/generic/internal/quality"
	"github.com/edge-hdc/generic/internal/serve"
	"github.com/edge-hdc/generic/internal/telemetry"
)

// TestQualityEndpoint drives real traffic through the HTTP stack and checks
// GET /quality reports a populated, internally-consistent window document.
func TestQualityEndpoint(t *testing.T) {
	p, X, Y := testPipeline(t)
	s, _ := testServer(t, p, serverConfig{workers: 1})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	before := quality.Default.Window()
	for i := 0; i < 20; i++ {
		if resp, body := postJSON(t, ts.URL+"/predict", map[string]any{"x": X[i%len(X)]}); resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d: %d %s", i, resp.StatusCode, body)
		}
	}
	for i := 0; i < 4; i++ {
		if resp, body := postJSON(t, ts.URL+"/adapt", adaptRequest{X: X[i], Label: Y[i]}); resp.StatusCode != http.StatusOK {
			t.Fatalf("adapt %d: %d %s", i, resp.StatusCode, body)
		}
	}

	resp, body := get(t, ts.URL+"/quality")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/quality: %d %s", resp.StatusCode, body)
	}
	var q qualityResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatalf("/quality is not valid JSON: %v\n%s", err, body)
	}
	if q.Mode != "exact" {
		t.Errorf("mode = %q, want exact", q.Mode)
	}
	if q.SnapshotVersion == 0 {
		t.Error("snapshot_version = 0, want >= 1")
	}
	// The process observer is shared, so assert against deltas: this test
	// alone contributed 20 predicts and 4 labeled adapts, and an adapt is
	// an accuracy sample, not a margin sample.
	if got := q.Window.Samples - before.Predicts; got != 20 {
		t.Errorf("window gained %d predicts, want 20", got)
	}
	if q.Window.MarginP10 > q.Window.MarginP50 || q.Window.MarginP50 > q.Window.MarginP90 {
		t.Errorf("margin quantiles not monotone: p10=%v p50=%v p90=%v",
			q.Window.MarginP10, q.Window.MarginP50, q.Window.MarginP90)
	}
	if q.Window.MarginP90 <= 0 || q.Window.MarginP90 > 1 {
		t.Errorf("margin_p90 = %v, want in (0,1]", q.Window.MarginP90)
	}
	if len(q.Window.ClassMix) != 2 {
		t.Fatalf("class_mix has %d entries, want 2", len(q.Window.ClassMix))
	}
	if q.Window.ClassMix[0]+q.Window.ClassMix[1] <= 0 {
		t.Error("class_mix sums to zero despite predicts")
	}
	if got := q.Adapt.Evals - before.AdaptEvals; got != 4 {
		t.Errorf("adapt evals gained %d, want 4", got)
	}
	if q.Adapt.Accuracy < 0 || q.Adapt.Accuracy > 1 {
		t.Errorf("adapt accuracy = %v, want in [0,1]", q.Adapt.Accuracy)
	}
	if !q.Drift.Reference {
		t.Error("drift.reference = false; Fit should have captured a profile")
	}
	if q.Shadow != nil {
		t.Error("shadow section present in exact mode")
	}
}

// TestQualityEndpointBinaryShadow binarizes the pipeline with shadow
// sampling on every predict and checks /quality grows a shadow section.
func TestQualityEndpointBinaryShadow(t *testing.T) {
	p, X, _ := testPipeline(t)
	if err := p.Binarize(); err != nil {
		t.Fatal(err)
	}
	p.SetShadowSampling(1)
	s, _ := testServer(t, p, serverConfig{workers: 1})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	before := quality.Default.Window()
	for i := 0; i < 16; i++ {
		if resp, body := postJSON(t, ts.URL+"/predict", map[string]any{"x": X[i%len(X)]}); resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d: %d %s", i, resp.StatusCode, body)
		}
	}
	_, body := get(t, ts.URL+"/quality")
	var q qualityResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Mode != "binary" {
		t.Fatalf("mode = %q, want binary", q.Mode)
	}
	if q.Shadow == nil {
		t.Fatal("shadow section missing in binary mode")
	}
	if q.Shadow.Every != 1 {
		t.Errorf("shadow.every = %d, want 1", q.Shadow.Every)
	}
	if got := q.Shadow.Samples - before.ShadowSamples; got != 16 {
		t.Errorf("shadow samples gained %d, want 16 (every=1)", got)
	}
	if q.Shadow.Rate < 0 || q.Shadow.Rate > 1 {
		t.Errorf("shadow rate = %v, want in [0,1]", q.Shadow.Rate)
	}
}

// TestMetricsPromNegotiation pins the /metrics content negotiation: JSON by
// default, Prometheus text exposition via ?format=prom or an Accept header
// preferring text/plain.
func TestMetricsPromNegotiation(t *testing.T) {
	p, _, _ := testPipeline(t)
	s, _ := testServer(t, p, serverConfig{})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	resp, body := get(t, ts.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("default /metrics Content-Type = %q, want JSON", ct)
	}
	if !json.Valid(body) {
		t.Error("default /metrics body is not valid JSON")
	}

	resp, body = get(t, ts.URL+"/metrics?format=prom")
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("prom /metrics Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE predict_ns histogram",
		"# TYPE quality_margin_micro histogram",
		"# TYPE serve_requests_total counter",
		`predict_ns_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	ar, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ar.Body.Close()
	if ct := ar.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("Accept: text/plain Content-Type = %q, want prom", ct)
	}
}

// TestDriftDegradesHealthz runs the monitor state machine end to end: a
// reference profile of confident margins, then a flood of near-tie predicts,
// must trip the drift alarm, flip /healthz to degraded (still 200, still
// ready), and clear again once the distribution recovers.
func TestDriftDegradesHealthz(t *testing.T) {
	p, _, _ := testPipeline(t)
	s, core := testServer(t, p, serverConfig{
		quality: qualityConfig{tripPSI: 0.05, clearPSI: 0.02, windows: 1, minSamples: 32},
	})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// Pin a fully-known baseline: confident margins, even class mix.
	ref := make([]float64, 64)
	labels := make([]int, 64)
	for i := range ref {
		ref[i] = 0.8
		labels[i] = i % 2
	}
	s.monitor.det.SetRef(quality.BuildProfile(ref, labels, "exact"))

	// First tick establishes the window edge; then shift the distribution.
	s.monitor.tick()
	tripped := false
	for round := 0; round < 5 && !tripped; round++ {
		for i := 0; i < 64; i++ {
			quality.Default.ObservePredict(0, 0.001)
		}
		tripped = s.monitor.tick().Active
	}
	if !tripped {
		t.Fatal("drift alarm never tripped on a collapsed-margin distribution")
	}

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under drift: %d, want 200 (degraded is alive)", resp.StatusCode)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || !h.Drift {
		t.Errorf("healthz under drift = status %q drift %v, want degraded/true", h.Status, h.Drift)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz under drift: %d, want 200 (drift does not stop routing)", resp.StatusCode)
	}
	if core.State() != serve.StateDegraded {
		t.Errorf("core state = %v, want degraded", core.State())
	}

	// Age the collapsed-margin flood out of the rolling window: the ring
	// keeps up to ringSlots-1 past intervals, so a few empty rotations move
	// the window's base past the flood before recovery traffic arrives.
	for i := 0; i < 8; i++ {
		s.monitor.tick()
	}

	// Recovery: windows matching the baseline clear the alarm.
	cleared := false
	for round := 0; round < 5 && !cleared; round++ {
		for i := 0; i < 64; i++ {
			quality.Default.ObservePredict(i%2, 0.8)
		}
		cleared = !s.monitor.tick().Active
	}
	if !cleared {
		t.Fatal("drift alarm never cleared after the distribution recovered")
	}
	_, body = get(t, ts.URL+"/healthz")
	h = healthResponse{} // "drift" is omitempty; a stale true must not leak in
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Drift {
		t.Errorf("healthz after recovery = status %q drift %v, want ok/false", h.Status, h.Drift)
	}
}

// TestRequestLogSampling pins the access-log contract: successful predicts
// log 1 in logSample lines with endpoint/status/margin-bucket attrs, while
// client errors always log.
func TestRequestLogSampling(t *testing.T) {
	var buf bytes.Buffer
	old := logger
	logger = newLogger(&buf, slog.LevelInfo)
	defer func() { logger = old }()

	p, X, _ := testPipeline(t)
	s, _ := testServer(t, p, serverConfig{logSample: 4})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	for i := 0; i < 8; i++ {
		postJSON(t, ts.URL+"/predict", map[string]any{"x": X[0]})
	}
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/predict", map[string]any{"bogus": 1})
	}

	var okLines, errLines int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec struct {
			Level        string  `json:"level"`
			Msg          string  `json:"msg"`
			Endpoint     string  `json:"endpoint"`
			Status       int     `json:"status"`
			Snapshot     uint64  `json:"snapshot"`
			DurMS        float64 `json:"dur_ms"`
			MarginBucket *int    `json:"margin_bucket"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec.Msg != "request" || rec.Endpoint != "predict" {
			continue
		}
		switch rec.Status {
		case http.StatusOK:
			okLines++
			if rec.MarginBucket == nil {
				t.Error("successful predict line missing margin_bucket")
			}
			if rec.Snapshot == 0 {
				t.Error("predict line missing snapshot version")
			}
		case http.StatusBadRequest:
			errLines++
			if rec.Level != "WARN" {
				t.Errorf("400 logged at %s, want WARN", rec.Level)
			}
		}
	}
	if okLines != 2 {
		t.Errorf("8 successes with logSample=4 produced %d lines, want 2", okLines)
	}
	if errLines != 3 {
		t.Errorf("3 client errors produced %d lines, want 3 (errors never sampled)", errLines)
	}
}

// TestQualityMonitorBootstrap feeds a monitor with no fit-time profile and
// checks the first sufficiently-large window becomes the drift baseline.
func TestQualityMonitorBootstrap(t *testing.T) {
	p, _, _ := testPipeline(t)
	core, err := serve.Open(p, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer core.Close()
	m := newQualityMonitor(core, nil, qualityConfig{minSamples: 16})
	if m.det.Ref() != nil {
		t.Fatal("detector has a reference before bootstrap")
	}
	m.tick() // window edge; tiny window must not bootstrap yet
	for i := 0; i < 16; i++ {
		quality.Default.ObservePredict(i%2, 0.5)
	}
	m.tick()
	if m.det.Ref() == nil {
		t.Fatal("detector did not bootstrap from the first full window")
	}
	if got := m.det.Ref().Mode; got != "exact" {
		t.Errorf("bootstrap profile mode = %q, want exact", got)
	}
}

// TestPipelineModeString pins the serving-mode naming used by /quality.
func TestPipelineModeString(t *testing.T) {
	p, _, _ := testPipeline(t)
	if got := pipelineModeString(p); got != "exact" {
		t.Errorf("trained pipeline mode = %q, want exact", got)
	}
	if err := p.Binarize(); err != nil {
		t.Fatal(err)
	}
	if got := pipelineModeString(p); got != "binary" {
		t.Errorf("binarized pipeline mode = %q, want binary", got)
	}
}
