// Package serve is the crash-safe, overload-resilient serving core behind
// cmd/generic-serve. It owns four concerns the HTTP layer composes:
//
//   - Immutable snapshot hot-swap: the live model sits behind an
//     atomic.Pointer[Snapshot]. Predicts read the current snapshot with one
//     atomic load and never take a lock; mutators (adapt, scrub, fault
//     injection) clone the snapshot's pipeline, modify the clone, and
//     publish it — inference latency is fully decoupled from mutation.
//   - Crash-safe persistence: an append-only adapt WAL (CRC-framed records,
//     configurable fsync policy) is written before an adapt is published,
//     so every acknowledged update survives kill -9; checkpoints wrap the
//     modelio format with the last applied WAL sequence and are written
//     through the atomic temp-fsync-rename protocol, after which the WAL is
//     truncated.
//   - Admission control: bounded-concurrency Gates let the HTTP layer shed
//     load with 429 instead of queueing into latency collapse.
//   - Self-healing: a background loop CRC-sweeps and scrubs the model
//     (driving the internal/faults repair path), and a three-state
//     ok→degraded→failing health machine gives load balancers real
//     readiness semantics. A seeded Chaos driver injects faults and handler
//     latency to prove, under test and in CI, that the daemon degrades
//     instead of falling over.
package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strings"

	"github.com/edge-hdc/generic/internal/telemetry"
)

// WAL file layout:
//
//	magic "GWAL" | version u16 | records...
//
// Each record is an independently CRC-framed adapt:
//
//	u32 payloadLen | payload | u32 crc32(payload)
//	payload = u64 seq | u32 label | u32 nFeatures | nFeatures × f64
//
// All integers little-endian, floats as IEEE-754 bits. Records carry a
// strictly increasing sequence number; replay skips records at or below the
// checkpoint's last applied sequence, which makes the
// checkpoint-then-truncate pair crash-safe in every interleaving (a crash
// between the two merely leaves already-applied records to be skipped).
// A torn tail — the partial record a mid-append crash leaves — is detected
// by length/CRC and truncated away on open; everything before it replays.
const (
	walMagic   = "GWAL"
	walVersion = 1
	// walHeaderLen is the byte offset of the first record.
	walHeaderLen = len(walMagic) + 2
	// maxWALPayload bounds a record's declared length so a corrupt length
	// word cannot drive a giant allocation (64k features is far beyond any
	// encoder config).
	maxWALPayload = 16 + 8*65536
)

// ErrWAL wraps adapt-WAL append/sync failures: the update could not be made
// durable and was not acknowledged. Serving layers map it to 503.
var ErrWAL = errors.New("serve: adapt WAL write failed")

// SyncPolicy selects when the WAL fsyncs.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append — an acknowledged adapt is
	// durable even across power loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncNone leaves flushing to the OS page cache: acknowledged adapts
	// survive process death (kill -9) but a machine crash may lose a recent
	// suffix. ~10-100× higher append throughput.
	SyncNone
)

// ParseSyncPolicy parses the CLI names "always" and "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always", "":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("serve: unknown WAL sync policy %q (want always or none)", s)
}

// Record is one logged adapt step.
type Record struct {
	Seq   uint64
	Label int
	X     []float64
}

// WAL is the append-only adapt log. It is not safe for concurrent use; the
// Core serializes appends under its mutator lock.
type WAL struct {
	f      *os.File
	path   string
	policy SyncPolicy
	buf    []byte // reusable frame-encoding scratch
}

// OpenWAL opens (creating if absent) the WAL at path, repairs any torn
// tail, and returns the log positioned for appending plus every intact
// record in order. lastSeq is the highest sequence present (0 when empty).
func OpenWAL(path string, policy SyncPolicy) (w *WAL, records []Record, lastSeq uint64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, 0, err
	}
	if info.Size() == 0 {
		var hdr [walHeaderLen]byte
		copy(hdr[:], walMagic)
		binary.LittleEndian.PutUint16(hdr[len(walMagic):], walVersion)
		if _, err = f.Write(hdr[:]); err != nil {
			return nil, nil, 0, err
		}
		if err = f.Sync(); err != nil {
			return nil, nil, 0, err
		}
		return &WAL{f: f, path: path, policy: policy}, nil, 0, nil
	}
	records, goodEnd, lastSeq, err := scanWAL(f)
	if err != nil {
		return nil, nil, 0, err
	}
	if goodEnd < info.Size() {
		// Torn or corrupt tail: drop it so the next append starts on a
		// clean frame boundary.
		if err = f.Truncate(goodEnd); err != nil {
			return nil, nil, 0, err
		}
	}
	if _, err = f.Seek(goodEnd, io.SeekStart); err != nil {
		return nil, nil, 0, err
	}
	return &WAL{f: f, path: path, policy: policy}, records, lastSeq, nil
}

// scanWAL validates the header and reads intact records, returning the file
// offset just past the last intact record. A torn or corrupt record ends
// the scan without error — it is the expected residue of a crash mid-append
// — but a bad header is a hard error (the file is not a WAL).
func scanWAL(f *os.File) (records []Record, goodEnd int64, lastSeq uint64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, 0, err
	}
	br := bufio.NewReader(f)
	hdr := make([]byte, walHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, 0, 0, fmt.Errorf("serve: WAL header unreadable: %w", err)
	}
	if string(hdr[:len(walMagic)]) != walMagic {
		return nil, 0, 0, fmt.Errorf("serve: bad WAL magic %q", hdr[:len(walMagic)])
	}
	if v := binary.LittleEndian.Uint16(hdr[len(walMagic):]); v != walVersion {
		return nil, 0, 0, fmt.Errorf("serve: unsupported WAL version %d", v)
	}
	goodEnd = int64(walHeaderLen)
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return records, goodEnd, lastSeq, nil // clean EOF or torn length word
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n < 16 || n > maxWALPayload {
			return records, goodEnd, lastSeq, nil // corrupt length: stop at last good frame
		}
		frame := make([]byte, int(n)+4)
		if _, err := io.ReadFull(br, frame); err != nil {
			return records, goodEnd, lastSeq, nil // torn payload
		}
		payload, crc := frame[:n], binary.LittleEndian.Uint32(frame[n:])
		if crc32.ChecksumIEEE(payload) != crc {
			return records, goodEnd, lastSeq, nil // corrupt payload
		}
		rec, ok := decodeRecord(payload)
		if !ok {
			return records, goodEnd, lastSeq, nil
		}
		records = append(records, rec)
		lastSeq = rec.Seq
		goodEnd += int64(4 + len(frame))
	}
}

// decodeRecord parses one CRC-verified payload.
func decodeRecord(p []byte) (Record, bool) {
	le := binary.LittleEndian
	seq := le.Uint64(p)
	label := int(int32(le.Uint32(p[8:])))
	nFeat := le.Uint32(p[12:])
	if 16+8*uint64(nFeat) != uint64(len(p)) { // in uint32, 2^29+1 features would claim 24 bytes
		return Record{}, false
	}
	x := make([]float64, nFeat)
	for i := range x {
		bits := le.Uint64(p[16+8*i:])
		x[i] = math.Float64frombits(bits)
	}
	return Record{Seq: seq, Label: label, X: x}, true
}

// Append frames, writes, and (per policy) fsyncs one record. On any error
// the update must be treated as unacknowledged: the caller reports ErrWAL
// and leaves the published snapshot untouched. The file position may be
// mid-frame after a failed write; the torn-tail repair on the next open
// discards it.
func (w *WAL) Append(rec Record) error {
	le := binary.LittleEndian
	payload := 16 + 8*len(rec.X)
	need := 4 + payload + 4
	if cap(w.buf) < need {
		w.buf = make([]byte, need)
	}
	b := w.buf[:need]
	le.PutUint32(b, uint32(payload))
	le.PutUint64(b[4:], rec.Seq)
	le.PutUint32(b[12:], uint32(int32(rec.Label)))
	le.PutUint32(b[16:], uint32(len(rec.X)))
	for i, v := range rec.X {
		le.PutUint64(b[20+8*i:], math.Float64bits(v))
	}
	le.PutUint32(b[4+payload:], crc32.ChecksumIEEE(b[4:4+payload]))
	if _, err := w.f.Write(b); err != nil {
		telemetry.WALErrors.Inc()
		return fmt.Errorf("%w: %v", ErrWAL, err)
	}
	if w.policy == SyncAlways {
		start := telemetry.Now()
		if err := w.f.Sync(); err != nil {
			telemetry.WALErrors.Inc()
			return fmt.Errorf("%w: fsync: %v", ErrWAL, err)
		}
		telemetry.WALFsyncNS.ObserveSince(start)
	}
	telemetry.WALAppends.Inc()
	telemetry.WALBytes.Add(int64(need))
	return nil
}

// Reset truncates the log back to its header — called after a successful
// checkpoint has made every logged record redundant. Crash-safe: if the
// process dies before Reset completes, replay simply skips the stale
// records by sequence number.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(int64(walHeaderLen)); err != nil {
		return err
	}
	if _, err := w.f.Seek(int64(walHeaderLen), io.SeekStart); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
