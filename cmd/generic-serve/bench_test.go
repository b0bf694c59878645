package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/serve"
)

// BenchmarkHandlePredictBinary serves single-sample /predict through the
// daemon's routes in process (an httptest request and recorder, no socket)
// on the model the serving benchmark's predict-binary workload serves:
// ISOLET, GENERIC encoding, D=2048, 20 epochs, binarized. The bodies are
// ISOLET test rows as encoding/json writes them, 128 features each.
func BenchmarkHandlePredictBinary(b *testing.B) {
	old := logger
	logger = newLogger(io.Discard, slog.LevelInfo)
	defer func() { logger = old }()
	p, err := buildPipeline("", "ISOLET", 20, 2048, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Binarize(); err != nil {
		b.Fatal(err)
	}
	core, err := serve.Open(p, serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer core.Close()
	h := newServer(core, serverConfig{workers: 2, logSample: 100}).routes()
	ds, err := generic.LoadDataset("ISOLET", 1)
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, 64)
	for i := range bodies {
		if bodies[i], err = json.Marshal(map[string][]float64{"x": ds.TestX[i]}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
