package main

// Closed-loop HTTP load: each connection sends its next request only after
// the previous answer arrived, so a slower daemon receives less load and the
// generator never measures its own timer wake-ups.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"github.com/edge-hdc/generic/internal/perf"
)

// newClient returns a keep-alive client that opens at most conns
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// loop is one closed-loop connection over a cycled request sequence.
type loop struct {
	reqs []request
	next int // index into reqs of the next request to send, cycled
	// check validates one 200 answer; an error counts the request as failed.
	check func(req *request, resp []byte) error
}

// tally is what one loop did during one phase.
type tally struct {
	lat          []float64 // milliseconds per answered request
	done         []float64 // seconds from the phase start to each answer
	sent, failed int
	rows         int   // samples in correctly answered requests
	firstErr     error // the first failure, for diagnosis
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// send posts one request and checks its answer.
func send(ctx context.Context, c *http.Client, base string, req *request, buf *bytes.Buffer, check func(*request, []byte) error) (time.Duration, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+req.path, bytes.NewReader(req.body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.Do(hr)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("%s: status %d: %s", req.path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return lat, check(req, buf.Bytes())
}

// run drives the loop from start until d has passed (or ctx ends).
func (l *loop) run(ctx context.Context, c *http.Client, base string, start time.Time, d time.Duration) tally {
	var t tally
	var buf bytes.Buffer
	for time.Since(start) < d && ctx.Err() == nil {
		req := &l.reqs[l.next]
		l.next = (l.next + 1) % len(l.reqs)
		t.sent++
		lat, err := send(ctx, c, base, req, &buf, l.check)
		if err != nil {
			t.fail(err)
			continue
		}
		t.lat = append(t.lat, float64(lat)/float64(time.Millisecond))
		t.done = append(t.done, time.Since(start).Seconds())
		t.rows += len(req.rows)
	}
	return t
}

// runPhase runs every loop concurrently for d and returns each loop's
// tally.
func runPhase(ctx context.Context, c *http.Client, base string, loops []*loop, d time.Duration) []tally {
	out := make([]tally, len(loops))
	start := time.Now()
	var wg sync.WaitGroup
	for i, l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = l.run(ctx, c, base, start, d)
		}()
	}
	wg.Wait()
	return out
}

// windows is the number of equal windows a measured phase is cut into.
// Interference from other tenants of a small VM comes in episodes from a
// fraction of a second to minutes that slow most requests by up to half; a
// figure over the whole phase moves with how much of it an episode covered.
// The gated latency is therefore the fast end of the phase's best window,
// which moves with the program and not with the episodes.
const windows = 32

// window returns the index of the window an answer seconds into a phase
// of length d falls in, or -1 for an answer that arrived after the phase.
func window(seconds float64, d time.Duration) int {
	if seconds >= d.Seconds() {
		return -1
	}
	return int(seconds / d.Seconds() * windows)
}

// bestLatency returns the lowest per-window 10th-percentile latency of t's
// answers in a phase of length d, and the number of answers in that window.
func bestLatency(d time.Duration, t tally) (p10 float64, n int) {
	var byWindow [windows][]float64
	for i, at := range t.done {
		if k := window(at, d); k >= 0 {
			byWindow[k] = append(byWindow[k], t.lat[i])
		}
	}
	p10 = math.Inf(1)
	for _, lat := range byWindow {
		if q := perf.Quantile(lat, 0.1); len(lat) > 0 && q < p10 {
			p10, n = q, len(lat)
		}
	}
	return p10, n
}

// checkLabels accepts a /predict answer equal to the oracle's labels.
func checkLabels(req *request, resp []byte) error {
	var r predictResponse
	if err := json.Unmarshal(resp, &r); err != nil {
		return fmt.Errorf("decoding /predict answer: %w", err)
	}
	return matchLabels(r, req.want)
}

// matchLabels compares a /predict answer with the oracle's labels.
func matchLabels(r predictResponse, want []int) error {
	got := r.Labels
	if r.Label != nil {
		got = []int{*r.Label}
	}
	if len(got) != len(want) {
		return fmt.Errorf("/predict answered %d labels for %d rows", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("/predict row %d: label %d, oracle %d", i, got[i], want[i])
		}
	}
	return nil
}

// checkInRange accepts any single-sample /predict answer naming a class; it
// serves predicts whose snapshot depends on concurrent adapts.
func checkInRange(classes int) func(*request, []byte) error {
	return func(_ *request, resp []byte) error {
		var r predictResponse
		if err := json.Unmarshal(resp, &r); err != nil {
			return fmt.Errorf("decoding /predict answer: %w", err)
		}
		if r.Label == nil || *r.Label < 0 || *r.Label >= classes {
			return fmt.Errorf("/predict answered %s", resp)
		}
		return nil
	}
}

// ackedAdapt is one acknowledged /adapt, in the order the daemon applied it.
type ackedAdapt struct {
	req  *request
	resp adaptResponse
}

// recordAdapts returns a check that appends every acknowledged adapt to
// acked; the oracle verifies them after the run. Only one goroutine sends
// adapts, so acked needs no lock.
func recordAdapts(acked *[]ackedAdapt) func(*request, []byte) error {
	return func(req *request, resp []byte) error {
		var r adaptResponse
		if err := json.Unmarshal(resp, &r); err != nil {
			return fmt.Errorf("decoding /adapt answer: %w", err)
		}
		*acked = append(*acked, ackedAdapt{req: req, resp: r})
		return nil
	}
}

// tailLadder lists the percentiles a tail latency may be reported at.
var tailLadder = []float64{99, 95, 90, 50}

// tailPercentile is the highest percentile of tailLadder that has at least
// ten of n samples beyond it, or 100 (the maximum) when none has.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-int(math.Ceil(p/100*float64(n))) >= 10 {
			return p
		}
	}
	return 100
}

// latencySummary is the median and supported tail of a latency sample.
type latencySummary struct {
	n           int
	p50, tail   float64 // milliseconds
	tailPercent float64
}

func summarize(lat []float64) latencySummary {
	s := latencySummary{n: len(lat), tailPercent: tailPercentile(len(lat))}
	if len(lat) > 0 {
		s.p50 = perf.Quantile(lat, 0.5)
		s.tail = perf.Quantile(lat, s.tailPercent/100)
	}
	return s
}
