package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// walFrame frames payload as Append does: length, payload, CRC.
func walFrame(payload []byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, uint32(len(payload)))
	b = append(b, payload...)
	return le.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// walPayload encodes a record payload claiming nFeat features but carrying
// the float64s in x, so a seed can lie about its length.
func walPayload(seq uint64, label int32, nFeat uint32, x ...float64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint64(nil, seq)
	b = le.AppendUint32(b, uint32(label))
	b = le.AppendUint32(b, nFeat)
	for _, v := range x {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func walHeader() []byte {
	return binary.LittleEndian.AppendUint16([]byte(walMagic), walVersion)
}

// replayWAL opens the WAL at path, closes it, and returns its records.
func replayWAL(t *testing.T, path string) []Record {
	t.Helper()
	w, recs, lastSeq, err := OpenWAL(path, SyncNone)
	if err != nil {
		t.Fatalf("OpenWAL with a valid header: %v", err)
	}
	var want uint64
	if len(recs) > 0 {
		want = recs[len(recs)-1].Seq
	}
	if lastSeq != want {
		t.Fatalf("lastSeq %d, want %d, the last of %d records", lastSeq, want, len(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Label != b[i].Label || !sameFloats(a[i].X, b[i].X) {
			return false
		}
	}
	return true
}

// FuzzWALReplay opens a WAL made of a valid header and arbitrary frame
// bytes. Replay must return records whose frames, as Append writes them,
// are a prefix of the file, and must cut the file back to exactly that
// prefix; reopening the repaired file returns the same records and leaves
// it unchanged.
func FuzzWALReplay(f *testing.F) {
	one := walFrame(walPayload(1, 0, 3, 0.25, -1, 3.5))
	two := walFrame(walPayload(2, -7, 0))
	f.Add([]byte{})
	f.Add(append(append([]byte{}, one...), two...))
	f.Add(append(append([]byte{}, one...), two[:len(two)-1]...)) // torn tail
	f.Add(append(append([]byte{}, one...), 0xff, 0xff, 0xff, 0xff))
	// A CRC-valid 24-byte payload claiming 2^29+1 features: 16+8*nFeat is
	// 24 in uint32 arithmetic, so a 32-bit length check passes it and
	// replay asks for a 4 GiB slice.
	f.Add(append(append([]byte{}, one...), walFrame(walPayload(2, 0, 1<<29+1, 1))...))
	f.Fuzz(func(t *testing.T, frames []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walFile)
		input := append(walHeader(), frames...)
		if err := os.WriteFile(path, input, 0o644); err != nil {
			t.Fatal(err)
		}
		recs := replayWAL(t, path)
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(input, repaired) {
			t.Fatalf("repair rewrote bytes: %d-byte file became %d bytes that are no prefix of it", len(input), len(repaired))
		}

		// The kept prefix is exactly the returned records, framed anew.
		refPath := filepath.Join(dir, "ref.wal")
		ref, _, _, err := OpenWAL(refPath, SyncNone)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := ref.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(refPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(repaired, want) {
			t.Fatalf("repaired file (%d bytes) is not its %d records re-appended (%d bytes)", len(repaired), len(recs), len(want))
		}

		if again := replayWAL(t, path); !sameRecords(recs, again) {
			t.Fatalf("reopening the repaired WAL returned %d records, first open %d", len(again), len(recs))
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, repaired) {
			t.Fatalf("second open changed the repaired file (err %v)", err)
		}
	})
}
