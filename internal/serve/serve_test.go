package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/rng"
)

// testPipeline trains a small two-class pipeline on a separable synthetic
// problem.
func testPipeline(t testing.TB, d int) (*generic.Pipeline, [][]float64, []int) {
	t.Helper()
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: d, Features: 6, Lo: 0, Hi: 1, UseID: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var X [][]float64
	var Y []int
	for i := 0; i < 48; i++ {
		x := make([]float64, 6)
		c := i % 2
		for j := range x {
			if (j < 3) == (c == 0) {
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

// modelBytes serializes a pipeline for bit-exact state comparison.
func modelBytes(t testing.TB, p *generic.Pipeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// adaptStream generates a deterministic sequence of adapt steps that force
// real model updates (each sample is labeled with the opposite class).
func adaptStream(n int, seed uint64) ([][]float64, []int) {
	r := rng.New(seed)
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := range X {
		x := make([]float64, 6)
		c := int(r.Uint64() % 2)
		for j := range x {
			base := 0.15
			if (j < 3) == (c == 0) {
				base = 0.85
			}
			x[j] = base + (r.Float64()-0.5)*0.1
		}
		X[i] = x
		Y[i] = 1 - c // deliberately wrong: guarantees perceptron updates
	}
	return X, Y
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adapt.wal")
	w, recs, lastSeq, err := OpenWAL(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || lastSeq != 0 {
		t.Fatalf("fresh WAL: %d records, seq %d", len(recs), lastSeq)
	}
	want := []Record{
		{Seq: 1, Label: 0, X: []float64{0.25, -1, 3.5}},
		{Seq: 2, Label: 1, X: []float64{0.5}},
		{Seq: 3, Label: -7, X: nil}, // negative labels and empty features round-trip
	}
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs, lastSeq, err := OpenWAL(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if lastSeq != 3 {
		t.Errorf("lastSeq = %d, want 3", lastSeq)
	}
	if len(recs) != len(want) {
		t.Fatalf("reopened %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Seq != want[i].Seq || rec.Label != want[i].Label || len(rec.X) != len(want[i].X) {
			t.Errorf("record %d = %+v, want %+v", i, rec, want[i])
		}
		for j := range rec.X {
			if rec.X[j] != want[i].X[j] {
				t.Errorf("record %d feature %d = %v, want %v", i, j, rec.X[j], want[i].X[j])
			}
		}
	}
}

// TestWALTornTail simulates a crash mid-append: a truncated final frame must
// be repaired away on open, preserving every intact record before it.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adapt.wal")
	w, _, _, err := OpenWAL(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := w.Append(Record{Seq: seq, Label: 1, X: []float64{1, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Tear the tail: chop the last 5 bytes (mid-CRC of record 3).
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	w2, recs, lastSeq, err := OpenWAL(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || lastSeq != 2 {
		t.Fatalf("after torn tail: %d records, seq %d; want 2, 2", len(recs), lastSeq)
	}
	// The repaired log must accept appends cleanly on the frame boundary.
	if err := w2.Append(Record{Seq: 3, Label: 0, X: []float64{9}}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, recs, lastSeq, err = OpenWAL(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || lastSeq != 3 {
		t.Errorf("after repair+append: %d records, seq %d; want 3, 3", len(recs), lastSeq)
	}
}

// TestWALCorruptRecord flips a payload byte mid-log: the scan must stop at
// the last intact frame rather than replay damage.
func TestWALCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adapt.wal")
	w, _, _, err := OpenWAL(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for seq := uint64(1); seq <= 3; seq++ {
		pos, _ := w.f.Seek(0, io.SeekCurrent)
		offsets = append(offsets, pos)
		if err := w.Append(Record{Seq: seq, Label: 1, X: []float64{1, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Corrupt one byte inside record 2's payload.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[offsets[1]+8] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs, lastSeq, err := OpenWAL(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || lastSeq != 1 {
		t.Errorf("after corrupt middle: %d records, seq %d; want 1, 1", len(recs), lastSeq)
	}

	// A clobbered header is a hard error — the file is not a WAL.
	if err := os.WriteFile(path, []byte("not a wal header"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenWAL(path, SyncAlways); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	p, X, _ := testPipeline(t, 256)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := WriteCheckpoint(path, p, 42); err != nil {
		t.Fatal(err)
	}
	got, seq, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Errorf("lastSeq = %d, want 42", seq)
	}
	if !bytes.Equal(modelBytes(t, got), modelBytes(t, p)) {
		t.Error("checkpointed model differs from original")
	}
	w0, _ := p.Predict(X[0])
	g0, _ := got.Predict(X[0])
	if w0 != g0 {
		t.Errorf("checkpointed predict = %d, want %d", g0, w0)
	}

	// A flipped header byte must fail the CRC, not load silently.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[6] ^= 0xff // lastSeq field
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(path); err == nil {
		t.Error("corrupt checkpoint header accepted")
	}

	// Missing file surfaces os.ErrNotExist so Open can fall back.
	if _, _, err := ReadCheckpoint(filepath.Join(t.TempDir(), "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing checkpoint: err = %v, want os.ErrNotExist", err)
	}
}

// ckptHeader is a valid checkpoint header for lastSeq.
func ckptHeader(lastSeq uint64) []byte {
	hdr := make([]byte, len(ckptMagic)+2+8+4)
	le := binary.LittleEndian
	copy(hdr, ckptMagic)
	le.PutUint16(hdr[4:], ckptVersion)
	le.PutUint64(hdr[6:], lastSeq)
	le.PutUint32(hdr[14:], crc32.ChecksumIEEE(hdr[:14]))
	return hdr
}

// craftedModels returns two hostile model files cut from a saved D=128
// pipeline: a 594-byte file whose CRC-valid header claims 2^20 features, and
// a 68-byte file whose header claims D = 2^20 and 64 classes and ends
// before the class payload.
func craftedModels(t testing.TB) (wide, truncated []byte) {
	t.Helper()
	p, _, _ := testPipeline(t, 128)
	b := modelBytes(t, p)
	le := binary.LittleEndian
	wide = bytes.Clone(b)
	le.PutUint32(wide[12:], 1<<20) // encoder Features
	le.PutUint32(wide[len(wide)-4:], crc32.ChecksumIEEE(wide[:len(wide)-4]))
	truncated = append(bytes.Clone(b[:62]), 0, 0, 0, 0, 0, 0) // no trainer name, flags
	le.PutUint32(truncated[8:], 1<<20)                        // encoder D
	le.PutUint32(truncated[50:], 1<<20)                       // model D
	le.PutUint32(truncated[54:], 64)                          // classes
	return wide, truncated
}

// readCheckpointBytes writes data as a checkpoint file and reads it back,
// reporting the bytes the read allocated.
func readCheckpointBytes(t *testing.T, data []byte) (*generic.Pipeline, uint64, uint64, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), checkpointFile)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, seq, err := ReadCheckpoint(path)
	runtime.ReadMemStats(&after)
	return p, seq, after.TotalAlloc - before.TotalAlloc, err
}

// A model file's encoder header is checked, and what it may allocate
// bounded, before anything is built: both crafted files are errors that
// cost well under a MiB.
func TestCheckpointRefusesCraftedModels(t *testing.T) {
	wide, truncated := craftedModels(t)
	if len(wide) != 594 || len(truncated) != 68 {
		t.Fatalf("crafted files are %d and %d bytes, want 594 and 68", len(wide), len(truncated))
	}
	for name, model := range map[string][]byte{"wide": wide, "truncated": truncated} {
		_, _, alloc, err := readCheckpointBytes(t, append(ckptHeader(7), model...))
		if err == nil {
			t.Errorf("%s: crafted model loaded", name)
		}
		if alloc > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", name, alloc)
		}
	}
}

// FuzzCheckpoint hardens the checkpoint reader: no input panics it, a
// successful read survives WriteCheckpoint → ReadCheckpoint with the same
// seq and the same model bytes, and one read allocates at most encoding's
// 64 MiB material cap plus a small multiple of the input's length.
func FuzzCheckpoint(f *testing.F) {
	p, _, _ := testPipeline(f, 128)
	bp := p.Clone()
	if err := bp.Binarize(); err != nil {
		f.Fatal(err)
	}
	wide, truncated := craftedModels(f)
	f.Add(append(ckptHeader(42), modelBytes(f, p)...))
	f.Add(append(ckptHeader(3), modelBytes(f, bp)...))
	f.Add(append(ckptHeader(7), wide...))
	f.Add(append(ckptHeader(7), truncated...))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, seq, alloc, err := readCheckpointBytes(t, data)
		if limit := uint64(64<<20 + 16*len(data) + 1<<20); alloc > limit {
			t.Fatalf("%d-byte checkpoint allocated %d bytes, limit %d", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "again.ckpt")
		if err := WriteCheckpoint(path, p, seq); err != nil {
			t.Fatal(err)
		}
		q, seq2, err := ReadCheckpoint(path)
		if err != nil {
			t.Fatalf("rewritten checkpoint does not load: %v", err)
		}
		if seq2 != seq {
			t.Fatalf("seq %d came back as %d", seq, seq2)
		}
		if !bytes.Equal(modelBytes(t, q), modelBytes(t, p)) {
			t.Fatal("rewritten checkpoint saves different model bytes")
		}
	})
}

// TestKillAndReplay is the durability contract: every acknowledged adapt
// survives an unclean death. A core takes adapts in a state dir and is
// abandoned without Close (the in-process equivalent of kill -9 — nothing
// is flushed or checkpointed beyond what Append already made durable); a
// fresh core on the same dir must replay to bit-identical model state.
func TestKillAndReplay(t *testing.T) {
	p, _, _ := testPipeline(t, 256)
	dir := t.TempDir()
	core, err := Open(p.Clone(), Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	AX, AY := adaptStream(16, 11)
	updates := 0
	for i := range AX {
		_, updated, err := core.Adapt(AX[i], AY[i])
		if err != nil {
			t.Fatal(err)
		}
		if updated {
			updates++
		}
	}
	if updates == 0 {
		t.Fatal("adapt stream produced no updates; the test is vacuous")
	}
	want := modelBytes(t, core.Current().Pipeline)
	// Abandon core without Close: no checkpoint, WAL handle simply leaks.

	reborn, err := Open(p.Clone(), Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	if got := reborn.Replayed(); got != len(AX) {
		t.Errorf("replayed %d adapts, want %d", got, len(AX))
	}
	if !bytes.Equal(modelBytes(t, reborn.Current().Pipeline), want) {
		t.Error("replayed model differs from the acknowledged pre-crash state")
	}
	if snap := reborn.Current(); snap.Seq != uint64(len(AX)) {
		t.Errorf("reborn snapshot seq = %d, want %d", snap.Seq, len(AX))
	}

	// The reborn core continues the sequence where the dead one stopped.
	if _, _, err := reborn.Adapt(AX[0], AY[0]); err != nil {
		t.Fatal(err)
	}
	if snap := reborn.Current(); snap.Seq != uint64(len(AX))+1 {
		t.Errorf("post-replay adapt seq = %d, want %d", snap.Seq, len(AX)+1)
	}
}

// TestCheckpointSeqSkip pins crash safety of the checkpoint-then-truncate
// pair: a checkpoint written WITHOUT the WAL truncate (the crash-between
// interleaving) must not double-apply the logged records on restart.
func TestCheckpointSeqSkip(t *testing.T) {
	p, _, _ := testPipeline(t, 256)
	dir := t.TempDir()
	core, err := Open(p.Clone(), Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	AX, AY := adaptStream(8, 13)
	for i := range AX {
		if _, _, err := core.Adapt(AX[i], AY[i]); err != nil {
			t.Fatal(err)
		}
	}
	snap := core.Current()
	want := modelBytes(t, snap.Pipeline)
	// Simulate the torn interleaving: checkpoint lands, truncate never runs.
	if err := WriteCheckpoint(filepath.Join(dir, checkpointFile), snap.Pipeline, snap.Seq); err != nil {
		t.Fatal(err)
	}

	// Restart: the checkpoint is the truth, every WAL record is stale.
	reborn, err := Open(nil, Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	if got := reborn.Replayed(); got != 0 {
		t.Errorf("replayed %d stale records, want 0 (all at or below checkpoint seq)", got)
	}
	if !bytes.Equal(modelBytes(t, reborn.Current().Pipeline), want) {
		t.Error("restart state differs after checkpoint-without-truncate")
	}

	// And a proper Checkpoint does truncate: a third life replays nothing
	// and the WAL is back to bare header.
	if err := reborn.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(filepath.Join(dir, walFile)); err != nil || info.Size() != int64(walHeaderLen) {
		t.Errorf("WAL after checkpoint: size %v, err %v; want bare header", info.Size(), err)
	}
}

// TestOpenPrecedence: a checkpoint beats the caller's pipeline; no pipeline
// and no checkpoint is an error; untrained pipelines are rejected.
func TestOpenPrecedence(t *testing.T) {
	p, X, _ := testPipeline(t, 256)
	dir := t.TempDir()
	core, err := Open(p, Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	AX, AY := adaptStream(4, 17)
	for i := range AX {
		if _, _, err := core.Adapt(AX[i], AY[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := core.Close(); err != nil { // checkpoints
		t.Fatal(err)
	}
	want := modelBytes(t, core.Current().Pipeline)
	if !HasCheckpoint(dir) {
		t.Fatal("Close did not leave a checkpoint")
	}

	// A different (untouched) pipeline is ignored in favor of the checkpoint.
	fresh, _, _ := testPipeline(t, 256)
	reopened, err := Open(fresh, Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if !bytes.Equal(modelBytes(t, reopened.Current().Pipeline), want) {
		t.Error("checkpoint did not take precedence over the provided pipeline")
	}
	if _, err := reopened.Current().Pipeline.Predict(X[0]); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(nil, Options{}); err == nil {
		t.Error("Open with no pipeline and no checkpoint succeeded")
	}
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 128, Features: 6, Lo: 0, Hi: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(generic.NewPipeline(enc, 2), Options{}); err == nil {
		t.Error("Open with untrained pipeline succeeded")
	}
}

// TestConcurrentPredictAdaptRace is the snapshot-isolation hammer (run under
// -race in CI): readers predict lock-free on whatever snapshot is current
// while one adapter publishes a storm of updates; afterward the core's state
// must be bit-identical to the same adapt sequence applied serially.
func TestConcurrentPredictAdaptRace(t *testing.T) {
	p, X, _ := testPipeline(t, 256)
	core, err := Open(p.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer core.Close()

	const nAdapts = 200
	AX, AY := adaptStream(nAdapts, 23)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap := core.Current()
				label, err := snap.Pipeline.Predict(X[(g+i)%len(X)])
				if err != nil {
					t.Errorf("concurrent predict: %v", err)
					return
				}
				if label < 0 || label > 1 {
					t.Errorf("concurrent predict returned label %d", label)
					return
				}
				// Health reads share the snapshot too (the /healthz path).
				if _, err := snap.Pipeline.Health(); err != nil {
					t.Errorf("concurrent health: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < nAdapts; i++ {
		if _, _, err := core.Adapt(AX[i], AY[i]); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	// Serial oracle: the identical sequence applied to a lone clone.
	oracle := p.Clone()
	for i := 0; i < nAdapts; i++ {
		if _, _, err := oracle.Adapt(AX[i], AY[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(modelBytes(t, core.Current().Pipeline), modelBytes(t, oracle)) {
		t.Error("concurrent core state differs from the serial oracle")
	}
	if v := core.Current().Version; v != uint64(1+nAdapts) {
		t.Errorf("snapshot version = %d, want %d", v, 1+nAdapts)
	}
}

// TestSnapshotIsolation is the copy-on-write contract as a property: a
// seeded random sequence of adapts, fault injections at every persistent
// site, and scrubs runs through the Core, and after every publish each
// earlier pinned snapshot must still serialize to the same bytes and answer
// a fixed probe with the same labels and margins. Save covers the class
// rows and norms; the probe also covers the shared encoder material, which
// Save does not serialize.
func TestSnapshotIsolation(t *testing.T) {
	sites := []generic.FaultSite{generic.FaultSiteClass, generic.FaultSiteLevel, generic.FaultSiteID, generic.FaultSiteNorm}
	for _, binary := range []bool{false, true} {
		name := "exact"
		if binary {
			name = "binary"
		}
		t.Run(name, func(t *testing.T) {
			p, X, _ := testPipeline(t, 512)
			if binary {
				if err := p.Binarize(); err != nil {
					t.Fatal(err)
				}
			}
			core, err := Open(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer core.Close()
			AX, AY := adaptStream(64, 31)
			probe := append(append([][]float64(nil), X[:6]...), AX[:6]...)

			type pinned struct {
				snap    *Snapshot
				sum     [sha256.Size]byte
				answers []uint64 // label and margin bits per probe row
			}
			observe := func(s *Snapshot) pinned {
				pin := pinned{snap: s, sum: sha256.Sum256(modelBytes(t, s.Pipeline))}
				for _, x := range probe {
					c, m, err := s.Pipeline.PredictMargin(x)
					if err != nil {
						t.Fatal(err)
					}
					pin.answers = append(pin.answers, uint64(c), math.Float64bits(m))
				}
				return pin
			}
			pins := []pinned{observe(core.Current())}
			r := rng.New(41)
			for step := 0; step < 48; step++ {
				var err error
				switch k := r.Intn(8); {
				case k < 5:
					i := r.Intn(len(AX))
					_, _, err = core.Adapt(AX[i], AY[i])
				case k < 7:
					spec := generic.FaultSpec{Site: sites[r.Intn(len(sites))], Kind: generic.FaultUniform, Rate: 0.02, Seed: uint64(step)}
					_, err = core.InjectFaults(spec)
				default:
					_, err = core.Scrub()
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				for i, pin := range pins {
					if got := observe(pin.snap); got.sum != pin.sum || !slices.Equal(got.answers, pin.answers) {
						t.Fatalf("step %d changed snapshot %d (version %d)", step, i, pin.snap.Version)
					}
				}
				pins = append(pins, observe(core.Current()))
			}
			if v := core.Current().Version; v != 49 {
				t.Fatalf("final version %d, want 49: some step did not publish", v)
			}
		})
	}
}

// TestHealthStateMachine walks ok → degraded (injected damage) → ok (scrub)
// and ok → failing (WAL sabotage) → recovery via the next good mutation.
func TestHealthStateMachine(t *testing.T) {
	p, _, _ := testPipeline(t, 512)
	dir := t.TempDir()
	core, err := Open(p.Clone(), Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer core.Close()
	if got := core.State(); got != StateOK {
		t.Fatalf("initial state = %v, want ok", got)
	}

	// Injected damage: degraded, still serving.
	if _, err := core.InjectFaults(generic.FaultSpec{
		Site: generic.FaultSiteClass, Kind: generic.FaultBankFail, Lane: 2, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	if got := core.State(); got != StateDegraded {
		t.Errorf("state after bank fault = %v, want degraded", got)
	}
	if _, err := core.Current().Pipeline.Predict(make([]float64, 6)); err != nil {
		t.Errorf("degraded predict failed: %v", err)
	}

	// Scrub clears the pending damage (masked lanes may persist — the state
	// then stays degraded, which is correct; only failing is forbidden).
	if _, err := core.Scrub(); err != nil {
		t.Fatal(err)
	}
	if got := core.State(); got == StateFailing {
		t.Errorf("state after scrub = %v", got)
	}
	h, err := core.Current().Pipeline.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.PendingFaults != 0 {
		t.Errorf("pending faults after scrub = %d, want 0", h.PendingFaults)
	}

	// WAL sabotage: close the log's file underneath it. The next adapt must
	// refuse the update with ErrWAL, keep the published snapshot untouched,
	// and flip the machine to failing.
	AX, AY := adaptStream(1, 29)
	before := core.Current()
	core.wal.f.Close()
	if _, _, err := core.Adapt(AX[0], AY[0]); !errors.Is(err, ErrWAL) {
		t.Fatalf("adapt with dead WAL: err = %v, want ErrWAL", err)
	}
	if got := core.State(); got != StateFailing {
		t.Errorf("state after WAL failure = %v, want failing", got)
	}
	if core.Current() != before {
		t.Error("failed adapt published a snapshot")
	}

	// Recovery: a successful mutation (the scrub tick) re-derives ok/degraded.
	if _, err := core.Scrub(); err != nil {
		t.Fatal(err)
	}
	if got := core.State(); got == StateFailing {
		t.Error("state stuck at failing after a successful scrub")
	}
	// Disarm Close's checkpoint-to-dead-WAL: reopen the log so the deferred
	// Close can sync it. (Production restarts the process here.)
	w, _, _, err := OpenWAL(filepath.Join(dir, walFile), SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	core.wal = w
}

// TestDriftDegradesState: the model-quality drift alarm folds into the
// health verdict as a degraded cause, ranks below failing, and clears.
func TestDriftDegradesState(t *testing.T) {
	p, _, _ := testPipeline(t, 512)
	core, err := Open(p.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer core.Close()
	if core.Drift() || core.State() != StateOK {
		t.Fatalf("initial drift=%v state=%v, want false/ok", core.Drift(), core.State())
	}
	core.SetDrift(true)
	if !core.Drift() || core.State() != StateDegraded {
		t.Fatalf("after SetDrift(true): drift=%v state=%v, want true/degraded", core.Drift(), core.State())
	}
	core.SetDrift(false)
	if got := core.State(); got != StateOK {
		t.Fatalf("after SetDrift(false): state = %v, want ok", got)
	}

	// Drift must not mask a harder verdict: force failing underneath.
	core.state.Store(int32(StateFailing))
	core.SetDrift(true)
	if got := core.State(); got != StateFailing {
		t.Fatalf("drift over failing: state = %v, want failing", got)
	}
}

func TestGate(t *testing.T) {
	if g := NewGate(0); g != nil {
		t.Error("NewGate(0) should be the nil unlimited gate")
	}
	var unlimited *Gate
	if !unlimited.TryAcquire() || unlimited.InFlight() != 0 || unlimited.Cap() != 0 {
		t.Error("nil gate must admit everything")
	}
	unlimited.Release()

	g := NewGate(2)
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("gate refused admission under capacity")
	}
	if g.TryAcquire() {
		t.Error("gate admitted past capacity")
	}
	if g.InFlight() != 2 || g.Cap() != 2 {
		t.Errorf("InFlight=%d Cap=%d, want 2, 2", g.InFlight(), g.Cap())
	}
	g.Release()
	if !g.TryAcquire() {
		t.Error("gate refused admission after release")
	}
}

// TestChaos pins the chaos driver: latency draws are deterministic per seed
// and bounded; Step degrades a live core in a way the scrub loop repairs.
func TestChaos(t *testing.T) {
	const maxLat = 20 * time.Millisecond
	a, b := NewChaos(9, maxLat), NewChaos(9, maxLat)
	sawNonzero := false
	for i := 0; i < 64; i++ {
		la, lb := a.Latency(), b.Latency()
		if la != lb {
			t.Fatalf("draw %d: %v != %v (same seed)", i, la, lb)
		}
		if la < 0 || la > maxLat {
			t.Fatalf("draw %d: latency %v out of bounds", i, la)
		}
		if la > 0 {
			sawNonzero = true
		}
	}
	if !sawNonzero {
		t.Error("64 draws produced no nonzero latency")
	}
	var nilChaos *Chaos
	if nilChaos.Latency() != 0 {
		t.Error("nil chaos must inject nothing")
	}

	p, _, _ := testPipeline(t, 512)
	core, err := Open(p.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer core.Close()
	c := NewChaos(3, 0)
	injected := 0
	for i := 0; i < 8; i++ {
		n, err := c.Step(core)
		if err != nil {
			t.Fatal(err)
		}
		injected += n
	}
	if injected == 0 {
		t.Error("8 chaos steps flipped no bits")
	}
	if got := core.State(); got == StateFailing {
		t.Errorf("chaos drove the core to failing: %v", got)
	}
	if _, err := core.Scrub(); err != nil {
		t.Fatal(err)
	}
	h, err := core.Current().Pipeline.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.PendingFaults != 0 {
		t.Errorf("pending faults after post-chaos scrub = %d, want 0", h.PendingFaults)
	}
}

// TestLoops smoke-tests the background scrub and chaos tickers: they run,
// they publish, and their stop functions return without leaking.
func TestLoops(t *testing.T) {
	p, _, _ := testPipeline(t, 256)
	core, err := Open(p.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer core.Close()

	stopScrub := core.StartScrubLoop(2 * time.Millisecond)
	c := NewChaos(5, 0)
	stopChaos := c.StartChaos(core, 2*time.Millisecond)
	time.Sleep(25 * time.Millisecond)
	stopChaos()
	stopScrub()
	if v := core.Current().Version; v < 2 {
		t.Errorf("loops published no snapshots (version %d)", v)
	}
	if got := core.State(); got == StateFailing {
		t.Errorf("loops drove the core to failing")
	}
	// Zero intervals are disabled loops.
	core.StartScrubLoop(0)()
	c.StartChaos(core, 0)()
}
