package telemetry

import (
	"io"
	"strconv"
)

// Prometheus text exposition (format version 0.0.4) for the registry: the
// same deterministic sorted snapshot as AppendJSON, rendered as
//
//	# TYPE <name> counter|gauge|histogram
//	<name> <value>
//
// with histograms expanded to the conventional cumulative series —
// <name>_bucket{le="<bound>"} (upper bounds in the instrument's native
// units, nanoseconds for latency histograms and margin micro-units for the
// quality histogram), a le="+Inf" terminal, plus <name>_sum and
// <name>_count. Every bucket of the fixed layout is emitted (not just the
// populated ones, unlike the JSON form): Prometheus rate() needs stable
// series identity across scrapes.
//
// Counter vs gauge is decided by the instrument type, not the name; the
// registry's *_total naming convention already matches what Prometheus
// expects of counters.

// ContentType is the Content-Type for the text exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// AppendProm appends the registry snapshot in Prometheus text format.
func (r *Registry) AppendProm(b []byte) []byte {
	names, ms := r.snapshot()
	for i, name := range names {
		switch m := ms[i].(type) {
		case *Counter:
			b = appendPromScalar(b, name, "counter", m.Value())
		case *Gauge:
			b = appendPromScalar(b, name, "gauge", m.Value())
		case *Histogram:
			b = m.appendProm(b, name)
		}
	}
	return b
}

// WriteProm writes the snapshot to w in Prometheus text format.
func (r *Registry) WriteProm(w io.Writer) error {
	_, err := w.Write(r.AppendProm(nil))
	return err
}

func appendPromScalar(b []byte, name, typ string, v int64) []byte {
	b = append(b, "# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, v, 10)
	return append(b, '\n')
}

// appendProm renders the histogram as the cumulative Prometheus series. The
// buckets, le="+Inf" and _count all come from one read of the buckets, so
// the cumulative counts never decrease and le="+Inf" equals _count.
func (h *Histogram) appendProm(b []byte, name string) []byte {
	n, count := h.load()
	sum := h.sum.Load()
	b = append(b, "# TYPE "...)
	b = append(b, name...)
	b = append(b, " histogram\n"...)
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += n[i]
		b = append(b, name...)
		b = append(b, `_bucket{le="`...)
		b = strconv.AppendInt(b, BucketBound(i), 10)
		b = append(b, `"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = append(b, name...)
	b = append(b, `_bucket{le="+Inf"} `...)
	b = strconv.AppendInt(b, count, 10)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_sum "...)
	b = strconv.AppendInt(b, sum, 10)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_count "...)
	b = strconv.AppendInt(b, count, 10)
	return append(b, '\n')
}
