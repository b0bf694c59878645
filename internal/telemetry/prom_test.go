package telemetry

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// TestPromGoldenSnapshot locks the exposition format byte-for-byte on a
// local registry: deterministic sorted names, TYPE lines per instrument
// kind, and the full cumulative histogram series with +Inf/_sum/_count.
func TestPromGoldenSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	g := r.Gauge("depth")
	h := r.Histogram("latency_ns")

	c.Add(42)
	g.Set(-7)
	h.Observe(400)     // bucket 0 (le 512)
	h.Observe(400)     // bucket 0
	h.Observe(1000)    // bucket 1 (le 1024)
	h.Observe(5 << 30) // overflow (beyond the largest finite bound)

	var want strings.Builder
	want.WriteString("# TYPE depth gauge\ndepth -7\n")
	want.WriteString("# TYPE latency_ns histogram\n")
	cum := []int64{2, 3}
	for i := 0; i < histBuckets; i++ {
		n := int64(3)
		if i < len(cum) {
			n = cum[i]
		}
		want.WriteString("latency_ns_bucket{le=\"")
		want.WriteString(itoa(BucketBound(i)))
		want.WriteString("\"} ")
		want.WriteString(itoa(n))
		want.WriteString("\n")
	}
	want.WriteString("latency_ns_bucket{le=\"+Inf\"} 4\n")
	want.WriteString("latency_ns_sum ")
	want.WriteString(itoa(400 + 400 + 1000 + 5<<30))
	want.WriteString("\n")
	want.WriteString("latency_ns_count 4\n")
	want.WriteString("# TYPE requests_total counter\nrequests_total 42\n")

	got := string(r.AppendProm(nil))
	if got != want.String() {
		t.Fatalf("prom exposition diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want.String())
	}

	// Scrape determinism: two renders of an untouched registry are equal.
	if again := string(r.AppendProm(nil)); again != got {
		t.Fatal("second render differs from first")
	}
}

// checkPromHistogram returns an error unless the rendered histogram's
// cumulative buckets never decrease (le="+Inf" included) and le="+Inf"
// equals _count.
func checkPromHistogram(text, name string) error {
	var prev, inf int64
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, name+"_sum ") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			return fmt.Errorf("line %q: %v", line, err)
		}
		switch {
		case strings.HasPrefix(line, name+"_bucket{"):
			if v < prev {
				return fmt.Errorf("%s below previous %d", line, prev)
			}
			prev, inf = v, v
		case strings.HasPrefix(line, name+"_count "):
			if v != inf {
				return fmt.Errorf(`_count %d != le="+Inf" %d`, v, inf)
			}
		}
	}
	return nil
}

// TestHistogramSnapshotsConsistentUnderObserve renders one histogram while
// writers observe into it. Every render is a self-consistent snapshot: the
// Prometheus series passes checkPromHistogram and the JSON count equals the
// sum of the listed buckets.
func TestHistogramSnapshotsConsistentUnderObserve(t *testing.T) {
	const writers, renders = 4, 2000
	var h Histogram
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				h.Observe(int64(i%4096) << (3 * w)) // spread over ~13 buckets
			}
		}(w)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for r := 0; r < renders; r++ {
		if err := checkPromHistogram(string(h.appendProm(nil, "h")), "h"); err != nil {
			t.Fatalf("render %d: %v", r, err)
		}
		var snap struct {
			Count   int64
			Buckets []struct{ N int64 }
		}
		if err := json.Unmarshal(h.appendJSON(nil), &snap); err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, b := range snap.Buckets {
			sum += b.N
		}
		if snap.Count != sum {
			t.Fatalf("render %d: JSON count %d != bucket sum %d", r, snap.Count, sum)
		}
	}
}

func TestPromCoversDefaultQualitySeries(t *testing.T) {
	out := string(Default.AppendProm(nil))
	for _, name := range []string{
		"quality_margin_micro", "quality_low_margin_total",
		"quality_drift_trips_total", "quality_drift_psi_micro",
		"quality_shadow_samples_total", "predict_ns",
	} {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Fatalf("default exposition missing series %q", name)
		}
	}
}
