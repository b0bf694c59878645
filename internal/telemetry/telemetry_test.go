package telemetry

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {512, 0},
		{513, 1}, {1024, 1},
		{1025, 2}, {2048, 2},
		{1 << 31, histBuckets - 1},
		{1<<31 + 1, histBuckets},
		{1 << 62, histBuckets},
	}
	for _, tc := range cases {
		ns := tc.ns
		if ns < 0 {
			// Observe clamps negatives before indexing; mirror that here.
			ns = 0
		}
		if got := bucketIndex(ns); got != tc.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", ns, got, tc.want)
		}
	}
	if BucketBound(0) != 512 {
		t.Errorf("BucketBound(0) = %d, want 512", BucketBound(0))
	}
	if BucketBound(histBuckets) != -1 {
		t.Errorf("overflow BucketBound = %d, want -1", BucketBound(histBuckets))
	}
}

// TestConcurrentHammer drives every instrument type from GOMAXPROCS
// goroutines; run under -race it proves the hot path is lock-free-safe, and
// the final totals prove no observation is lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	g := r.Gauge("depth")
	h := r.Histogram("op_ns")
	workers := runtime.GOMAXPROCS(0) * 2
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(int64(w*perWorker + i))
				// Concurrent registration of an existing name must return
				// the same instrument, not a fresh one.
				if r.Counter("ops_total") != c {
					t.Error("Counter re-registration returned a different handle")
					return
				}
				_ = r.AppendJSON(nil) // concurrent exposition snapshot
			}
		}(w)
	}
	wg.Wait()
	total := int64(workers * perWorker)
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	var bucketSum int64
	for i := range h.buckets {
		bucketSum += h.buckets[i].Load()
	}
	if bucketSum != total {
		t.Errorf("bucket sum = %d, want %d", bucketSum, total)
	}
}

// TestSnapshotGolden pins the exposition format byte for byte: sorted keys,
// bare scalar values, histograms with only populated buckets.
func TestSnapshotGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("predict_total").Add(3)
	r.Gauge("fault_masked_lanes").Set(2)
	h := r.Histogram("predict_ns")
	h.Observe(100)     // ≤512 bucket
	h.Observe(600)     // ≤1024 bucket
	h.Observe(700)     // ≤1024 bucket
	h.Observe(1 << 40) // overflow bucket

	const want = `{"fault_masked_lanes":2,` +
		`"predict_ns":{"count":4,"sum_ns":1099511629176,"buckets":[` +
		`{"le_ns":512,"n":1},{"le_ns":1024,"n":2},{"le_ns":-1,"n":1}]},` +
		`"predict_total":3}`
	got := r.AppendJSON(nil)
	if string(got) != want {
		t.Errorf("snapshot mismatch\n got: %s\nwant: %s", got, want)
	}
	var decoded map[string]any
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}

	r.Reset()
	const zero = `{"fault_masked_lanes":0,` +
		`"predict_ns":{"count":0,"sum_ns":0,"buckets":[]},` +
		`"predict_total":0}`
	if got := string(r.AppendJSON(nil)); got != zero {
		t.Errorf("post-Reset snapshot = %s, want %s", got, zero)
	}
	if r.Histogram("predict_ns") != h {
		t.Error("Reset invalidated the histogram handle")
	}
}

func TestRegisterTypeClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x")
}

func TestDefaultInstrumentsRegistered(t *testing.T) {
	// The canonical handles must live in Default under their documented
	// names — generic-serve exposes Default verbatim.
	if Default.Histogram("encode_ns") != EncodeNS {
		t.Error("encode_ns not registered in Default")
	}
	if Default.Histogram("predict_ns") != PredictNS {
		t.Error("predict_ns not registered in Default")
	}
	if Default.Counter("wal_appends_total") != WALAppends {
		t.Error("wal_appends_total not registered in Default")
	}
	if Default.Gauge("fault_masked_lanes") != FaultMaskedLanes {
		t.Error("fault_masked_lanes not registered in Default")
	}
}

func TestObserveSince(t *testing.T) {
	h := NewRegistry().Histogram("h")
	start := Now()
	h.ObserveSince(start)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if h.SumNanos() < 0 {
		t.Errorf("negative elapsed %d", h.SumNanos())
	}
}

// TestQuantileEdgeCases covers the corners the /metrics summaries rely on:
// empty histograms, zero-duration observations, observations beyond the top
// bucket, and quantiles that land exactly on bucket boundaries.
func TestQuantileEdgeCases(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile = %d, want 0", got)
	}

	// Zero-duration observations land in the first bucket; every quantile
	// reports its upper bound.
	h.reset()
	for i := 0; i < 10; i++ {
		h.Observe(0)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 512 {
			t.Errorf("all-zero observations: Quantile(%v) = %d, want 512", q, got)
		}
	}

	// Observations above the top bucket bound report the overflow marker.
	h.reset()
	h.Observe(int64(1) << 62)
	if got := h.Quantile(0.5); got != -1 {
		t.Errorf("overflow observation: Quantile = %d, want -1", got)
	}

	// Boundary behavior: 512 one-nanosecond observations and 512 at ~1 ms.
	// The median rank (256) sits entirely in the first bucket; anything past
	// 0.5 crosses into the high bucket.
	h.reset()
	for i := 0; i < 512; i++ {
		h.Observe(1)
		h.Observe(1 << 20)
	}
	if got := h.Quantile(0.5); got != 512 {
		t.Errorf("bimodal median = %d, want 512 (first bucket bound)", got)
	}
	wantHigh := BucketBound(bucketIndex(1 << 20))
	if got := h.Quantile(0.51); got != wantHigh {
		t.Errorf("Quantile(0.51) = %d, want %d", got, wantHigh)
	}
	if got := h.Quantile(1); got != wantHigh {
		t.Errorf("Quantile(1) = %d, want %d", got, wantHigh)
	}
	// q outside [0,1] clamps instead of panicking.
	if got := h.Quantile(-3); got != 512 {
		t.Errorf("Quantile(-3) = %d, want 512", got)
	}
	if got := h.Quantile(7); got != wantHigh {
		t.Errorf("Quantile(7) = %d, want %d", got, wantHigh)
	}

	// A single observation on an exact bucket bound reports that bound, not
	// the next bucket up.
	h.reset()
	h.Observe(1024)
	if got := h.Quantile(1); got != 1024 {
		t.Errorf("exact-bound observation: Quantile(1) = %d, want 1024", got)
	}
}
