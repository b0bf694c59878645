package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/serve"
)

// testPipeline trains a small two-class pipeline on a separable synthetic
// problem, returning it with its training set.
func testPipeline(t *testing.T) (*generic.Pipeline, [][]float64, []int) {
	t.Helper()
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 512, Features: 8, Lo: 0, Hi: 1, UseID: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var X [][]float64
	var Y []int
	for i := 0; i < 64; i++ {
		x := make([]float64, 8)
		c := i % 2
		for j := range x {
			if (j < 4) == (c == 0) {
				x[j] = 0.85
			} else {
				x[j] = 0.15
			}
		}
		X = append(X, x)
		Y = append(Y, c)
	}
	p := generic.NewPipeline(enc, 2)
	if _, err := p.Fit(X, Y, generic.TrainOptions{Epochs: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return p, X, Y
}

// testServer wraps a pipeline in an in-memory serving core and HTTP layer.
func testServer(t *testing.T, p *generic.Pipeline, cfg serverConfig) (*server, *serve.Core) {
	t.Helper()
	core, err := serve.Open(p, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { core.Close() })
	return newServer(core, cfg), core
}

// adaptRequest is the /adapt body the tests send.
type adaptRequest struct {
	X     []float64 `json:"x"`
	Label int       `json:"label"`
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestEndpointsRoundTrip drives every endpoint through a real HTTP stack:
// single and batch predict, adapt, metrics, healthz (ok, then degraded-but-
// still-200 after an injected bank failure, then repaired after scrub),
// readyz, and pprof.
func TestEndpointsRoundTrip(t *testing.T) {
	p, X, Y := testPipeline(t)
	s, core := testServer(t, p, serverConfig{workers: 2})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// Single predict.
	resp, body := postJSON(t, ts.URL+"/predict", map[string]any{"x": X[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single predict: %d %s", resp.StatusCode, body)
	}
	var single predictResponse
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	if want, _ := p.Predict(X[0]); single.Label == nil || *single.Label != want {
		t.Errorf("single predict = %v, want %d", single.Label, want)
	}

	// Batch predict matches serial PredictAll bit for bit.
	resp, body = postJSON(t, ts.URL+"/predict", map[string]any{"xs": X})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch predict: %d %s", resp.StatusCode, body)
	}
	var batch predictResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	want, err := p.PredictAll(X)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Labels) != len(want) {
		t.Fatalf("batch returned %d labels, want %d", len(batch.Labels), len(want))
	}
	for i := range want {
		if batch.Labels[i] != want[i] {
			t.Errorf("batch label %d = %d, want %d", i, batch.Labels[i], want[i])
		}
	}

	// Malformed predict bodies are client errors — including a wrong
	// feature width, which must come back as 400, not a handler panic.
	for _, bad := range []any{
		map[string]any{},
		map[string]any{"x": X[0], "xs": X},
		map[string]any{"bogus": 1},
		map[string]any{"x": []float64{1, 2, 3}},
		map[string]any{"xs": [][]float64{{1, 2, 3}}},
	} {
		if resp, _ := postJSON(t, ts.URL+"/predict", bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad body %v: status %d, want 400", bad, resp.StatusCode)
		}
	}
	if resp, _ := postJSON(t, ts.URL+"/adapt", adaptRequest{X: X[0], Label: 99}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("adapt with out-of-range label: status %d, want 400", resp.StatusCode)
	}

	// Adapt round-trip: the ack also publishes a new snapshot version.
	v0 := core.Current().Version
	resp, body = postJSON(t, ts.URL+"/adapt", adaptRequest{X: X[1], Label: Y[1]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adapt: %d %s", resp.StatusCode, body)
	}
	var ar adaptResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if got := core.Current().Version; got != v0+1 {
		t.Errorf("snapshot version after adapt = %d, want %d", got, v0+1)
	}

	// Metrics: valid JSON with nonzero encode and predict activity.
	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var metrics map[string]json.RawMessage
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("metrics is not valid JSON: %v\n%s", err, body)
	}
	for _, name := range []string{"encode_ns", "predict_ns", "serve_predict_ns", "serve_adapt_ns"} {
		var h struct {
			Count int64 `json:"count"`
		}
		if err := json.Unmarshal(metrics[name], &h); err != nil {
			t.Fatalf("metrics[%s]: %v", name, err)
		}
		if h.Count == 0 {
			t.Errorf("metrics[%s].count = 0, want nonzero", name)
		}
	}
	for _, name := range []string{"serve_requests_total", "snapshot_version", "wal_appends_total"} {
		if string(metrics[name]) == "" {
			t.Errorf("%s missing from /metrics", name)
		}
	}

	// Read-time quantile summaries per endpoint, alongside the raw buckets.
	var summaries map[string]struct {
		Count int64 `json:"count"`
		P50NS int64 `json:"p50_ns"`
		P95NS int64 `json:"p95_ns"`
		P99NS int64 `json:"p99_ns"`
	}
	if err := json.Unmarshal(metrics["summaries"], &summaries); err != nil {
		t.Fatalf("metrics[summaries]: %v", err)
	}
	for _, ep := range []string{"predict", "adapt"} {
		s, ok := summaries[ep]
		if !ok {
			t.Errorf("summaries missing endpoint %q", ep)
			continue
		}
		if s.Count == 0 || s.P50NS == 0 {
			t.Errorf("summaries[%s] = %+v, want nonzero count and p50", ep, s)
		}
		if s.P50NS > s.P95NS || s.P95NS > s.P99NS {
			t.Errorf("summaries[%s] quantiles not monotone: %+v", ep, s)
		}
	}

	// Healthy and ready before injection.
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before injection: %d %s", resp.StatusCode, body)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("healthz status = %q, want ok", h.Status)
	}
	if h.SnapshotVersion == 0 {
		t.Error("healthz snapshot_version = 0, want >= 1")
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz healthy: %d, want 200", resp.StatusCode)
	}

	// A dead class-memory bank degrades the daemon — but liveness holds:
	// /healthz stays 200 with status "degraded" (the graceful-degradation
	// contract is degraded-not-dead), and /readyz keeps routing traffic.
	if _, err := core.InjectFaults(generic.FaultSpec{
		Site: generic.FaultSiteClass, Kind: generic.FaultBankFail, Lane: 3, Seed: 9,
	}); err != nil {
		t.Fatal(err)
	}
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after bank fault: %d, want 200 degraded (%s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.PendingFaults == 0 {
		t.Errorf("degraded healthz = %+v", h)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz while degraded: %d, want 200", resp.StatusCode)
	}

	// Scrub repairs what it can; pending faults drop to zero. The scrub may
	// leave lanes masked or rows quarantined (still degraded) — the contract
	// here is only that the pending count clears.
	if _, err := core.Scrub(); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, ts.URL+"/healthz")
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.PendingFaults != 0 {
		t.Errorf("pending faults after scrub = %d, want 0", h.PendingFaults)
	}

	// pprof index answers.
	if resp, _ := get(t, ts.URL+"/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: %d", resp.StatusCode)
	}
}

// TestAdaptRequiresLabel sends /adapt bodies whose label is missing or
// null to a daemon with a WAL: each is a 400, and neither the snapshot nor
// the WAL moves. Such bodies used to train class 0.
func TestAdaptRequiresLabel(t *testing.T) {
	p, X, _ := testPipeline(t)
	core, err := serve.Open(p, serve.Options{Dir: t.TempDir(), Sync: serve.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { core.Close() })
	ts := httptest.NewServer(newServer(core, serverConfig{}).routes())
	defer ts.Close()

	v0, appends0 := core.Current().Version, walAppends(t, ts.URL)
	for _, body := range []any{
		map[string]any{"x": X[0]},
		map[string]any{"x": X[0], "label": nil},
	} {
		resp, out := postJSON(t, ts.URL+"/adapt", body)
		var e errorResponse
		if err := json.Unmarshal(out, &e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Error != `body needs "x" and "label"` {
			t.Errorf("adapt %v: %d %q, want 400 naming the label", body, resp.StatusCode, e.Error)
		}
	}
	if v := core.Current().Version; v != v0 {
		t.Errorf("snapshot version %d after refused adapts, want %d", v, v0)
	}
	if n := walAppends(t, ts.URL); n != appends0 {
		t.Errorf("wal_appends_total %d after refused adapts, want %d", n, appends0)
	}
}

// walAppends reads wal_appends_total from /metrics.
func walAppends(t *testing.T, url string) int64 {
	t.Helper()
	_, body := get(t, url+"/metrics")
	var m struct {
		N *int64 `json:"wal_appends_total"`
	}
	if err := json.Unmarshal(body, &m); err != nil || m.N == nil {
		t.Fatalf("wal_appends_total missing from /metrics (%v)", err)
	}
	return *m.N
}

// TestMethodRestrictions pins every endpoint to its one verb: anything else
// is 405 with an Allow header naming the right one.
func TestMethodRestrictions(t *testing.T) {
	p, _, _ := testPipeline(t)
	s, _ := testServer(t, p, serverConfig{})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/predict", http.MethodPost},
		{http.MethodDelete, "/adapt", http.MethodPost},
		{http.MethodPost, "/metrics", http.MethodGet},
		{http.MethodPost, "/healthz", http.MethodGet},
		{http.MethodPost, "/readyz", http.MethodGet},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
}

// TestOverloadShed fills the predict and adapt gates directly (the test is
// in-package) and checks the next request sheds with 429 + Retry-After
// instead of queueing; releasing the slot restores service.
func TestOverloadShed(t *testing.T) {
	p, X, Y := testPipeline(t)
	s, _ := testServer(t, p, serverConfig{maxPredict: 1, maxAdapt: 1})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	for _, ep := range []struct {
		name string
		gate *serve.Gate
		body any
	}{
		{"/predict", s.predictGate, map[string]any{"x": X[0]}},
		{"/adapt", s.adaptGate, adaptRequest{X: X[0], Label: Y[0]}},
	} {
		if !ep.gate.TryAcquire() {
			t.Fatalf("%s: could not hold the only slot", ep.name)
		}
		resp, _ := postJSON(t, ts.URL+ep.name, ep.body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s while saturated: status %d, want 429", ep.name, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s shed response missing Retry-After", ep.name)
		}
		ep.gate.Release()
		if resp, body := postJSON(t, ts.URL+ep.name, ep.body); resp.StatusCode != http.StatusOK {
			t.Errorf("%s after release: status %d, want 200 (%s)", ep.name, resp.StatusCode, body)
		}
	}
}

// TestDeadline504 runs with a 1ms request budget and chaos latency far above
// it: injected delays must surface as 504 Gateway Timeout, and requests that
// dodge the injection (chaos skips latency about half the time) still 200.
func TestDeadline504(t *testing.T) {
	p, X, _ := testPipeline(t)
	s, _ := testServer(t, p, serverConfig{deadline: time.Millisecond})
	s.chaos = serve.NewChaos(7, 500*time.Millisecond)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	var got504, got200 bool
	for i := 0; i < 40 && !(got504 && got200); i++ {
		resp, _ := postJSON(t, ts.URL+"/predict", map[string]any{"x": X[0]})
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			got504 = true
		case http.StatusOK:
			got200 = true
		default:
			t.Fatalf("predict under chaos latency: unexpected status %d", resp.StatusCode)
		}
	}
	if !got504 {
		t.Error("no request hit the deadline despite chaos latency >> budget")
	}
	if !got200 {
		t.Error("no request succeeded (chaos skips latency ~half the time)")
	}
}

// TestConcurrentPredict hammers POST /predict from many goroutines (run
// under -race in CI) and checks every response is bit-identical to the
// pipeline's own batch prediction, interleaved with adapt requests to
// exercise snapshot publication under concurrent lock-free reads.
func TestConcurrentPredict(t *testing.T) {
	p, X, Y := testPipeline(t)
	s, _ := testServer(t, p, serverConfig{workers: 2})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	want, err := p.PredictAll(X)
	if err != nil {
		t.Fatal(err)
	}
	// Adapt on already-correct samples: publishes fresh snapshots without
	// changing the model, so predictions stay comparable.
	correct := -1
	for i := range X {
		if want[i] == Y[i] {
			correct = i
			break
		}
	}
	if correct < 0 {
		t.Fatal("no correctly-predicted sample to adapt on")
	}

	const goroutines = 8
	const perG = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				idx := (g*perG + i) % len(X)
				if i%5 == 4 {
					resp, _ := postJSON(t, ts.URL+"/adapt", adaptRequest{X: X[correct], Label: Y[correct]})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("adapt status %d", resp.StatusCode)
					}
					continue
				}
				resp, body := postJSON(t, ts.URL+"/predict", map[string]any{"x": X[idx]})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("predict status %d: %s", resp.StatusCode, body)
					continue
				}
				var pr predictResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					errs <- err
					continue
				}
				if pr.Label == nil || *pr.Label != want[idx] {
					errs <- fmt.Errorf("sample %d: got %v, want %d", idx, pr.Label, want[idx])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReadyzDraining pins the drain handshake: flipping the draining flag
// turns /readyz into 503 ("draining") while /healthz stays 200 — load
// balancers stop routing without a supervisor restart.
func TestReadyzDraining(t *testing.T) {
	p, _, _ := testPipeline(t)
	s, _ := testServer(t, p, serverConfig{})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	s.draining.Store(true)
	resp, body := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	var rr readyResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Ready || rr.Reason != "draining" {
		t.Errorf("readyz body = %+v, want ready=false reason=draining", rr)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200 (liveness is separate)", resp.StatusCode)
	}
}

// TestBuildPipelineFlags pins the flag contract: exactly one source.
func TestBuildPipelineFlags(t *testing.T) {
	if _, err := buildPipeline("", "", 1, 512, 1, 1); err == nil {
		t.Error("no source accepted")
	}
	if _, err := buildPipeline("x.model", "EEG", 1, 512, 1, 1); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("both sources: err = %v", err)
	}
	if _, err := buildPipeline("", "NoSuchDataset", 1, 512, 1, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := run(runConfig{walSync: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "sync policy") {
		t.Errorf("bogus -wal-sync: err = %v", err)
	}
}

// TestServeModelFile round-trips a model through SaveFile → -model loading.
func TestServeModelFile(t *testing.T) {
	p, X, _ := testPipeline(t)
	path := t.TempDir() + "/m.model"
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := buildPipeline(path, "", 1, 512, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := testServer(t, loaded, serverConfig{workers: 1})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/predict", map[string]any{"x": X[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict on loaded model: %d %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if want, _ := p.Predict(X[0]); pr.Label == nil || *pr.Label != want {
		t.Errorf("loaded-model predict = %v, want %d", pr.Label, want)
	}
}
