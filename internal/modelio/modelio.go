// Package modelio serializes trained GENERIC models and encoder
// configurations to a compact binary format — the software counterpart of
// the accelerator's config port, through which level hypervectors, id
// seeds, and (for offline training) class hypervectors are loaded (§4.1).
//
// The format is versioned and self-describing:
//
//	magic "GHDC" | version u16 | header | payload | crc32 u32 (v2+)
//
// All integers are little-endian. Class elements are stored at the model's
// bit-width: 16-bit two's complement words (narrower widths still occupy
// 16 bits; the density win of sub-16-bit packing is not worth the format
// complexity at 4K×32 scale).
//
// Version 2 appends a CRC32 (IEEE) integrity footer computed over every
// preceding byte (magic through payload). Version-1 files have no footer
// and still load; Bundle.HasChecksum reports which kind was read, so
// callers can surface a "no checksum" note for legacy files.
//
// Version 3 records the training strategy that produced the model — a
// length-prefixed name (u16 length + bytes, at most 64) between the model
// header and the class payload, covered by the CRC footer. Version-1 and -2
// files still load with an empty Trainer.
//
// Version 4 records the inference representation: a flags word (bit 0 set
// when the pipeline was binarized for packed Hamming inference) and the
// counter bit-width the binary model was derived from, between the trainer
// name and the class payload. The payload stays the integer counters — the
// packed class vectors are a pure function of their signs and are
// re-derived on load — so binarized and exact files differ only in these
// four bytes. Files predating version 4 load as not binarized.
package modelio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"

	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/hdc"
)

const (
	magic   = "GHDC"
	version = 4
	// versionNoBinary is the pre-representation format (trainer name but no
	// binarization flags), still readable and writable for tests.
	versionNoBinary = 3
	// versionNoTrainer is the pre-strategy format (checksummed but without
	// the trainer-name field), still readable and writable for tests.
	versionNoTrainer = 2
	// versionNoChecksum is the legacy footerless format, still readable.
	versionNoChecksum = 1
	// maxTrainerLen bounds the trainer-name field so a corrupt length word
	// cannot drive a large allocation.
	maxTrainerLen = 64
)

// ErrChecksum reports a version-2 stream whose CRC32 footer does not match
// its contents: the payload was corrupted (or truncated at a 4-byte
// boundary) after writing.
var ErrChecksum = errors.New("modelio: checksum mismatch, file is corrupt")

// Bundle couples a trained model with the encoder configuration that
// produced its encodings — both are needed to reconstruct a working
// pipeline.
type Bundle struct {
	Kind  encoding.Kind
	Cfg   encoding.Config
	Model *classifier.Model
	// Trainer names the training strategy that produced the model
	// ("perceptron", "lehdc"); empty for files predating version 3 or for
	// models whose provenance is unknown.
	Trainer string
	// HasChecksum is set by Read: true when the stream carried (and passed)
	// a CRC32 integrity footer, false for legacy version-1 files.
	HasChecksum bool
	// Binarized records that the pipeline's inference representation was the
	// packed binary model when saved; loaders re-derive the packed class
	// vectors from the counter signs. False for files predating version 4.
	Binarized bool
	// BinarizedFromBW is the counter bit-width the binary model was derived
	// from — binarization provenance. Zero when Binarized is false.
	BinarizedFromBW int
}

// Write serializes the bundle in the current format version, including the
// CRC32 integrity footer.
func Write(w io.Writer, b *Bundle) error {
	return writeVersioned(w, b, version)
}

// AtomicWriteFile writes a file through the crash-safe temp-fsync-rename
// protocol: the payload is produced by write into a temporary file in the
// destination's directory, fsynced, closed, and renamed over path, and the
// directory entry is fsynced so the rename itself survives power loss. On
// any error the temporary file is removed and the previous contents of path
// are untouched — a mid-write crash or a failing serializer can never leave
// a truncated or half-written file at path.
func AtomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Platforms
// whose directory handles reject Sync (it is optional in POSIX) degrade to
// rename-only atomicity, which still never exposes a partial file.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)) {
		return nil
	}
	return err
}

// writeVersioned writes the requested format version — the legacy
// footerless version stays writable so compatibility tests can produce it.
func writeVersioned(w io.Writer, b *Bundle, ver uint16) error {
	if b == nil || b.Model == nil {
		return fmt.Errorf("modelio: nil bundle or model")
	}
	// Everything up to the footer streams through the CRC as it is written;
	// the footer itself goes to w alone.
	h := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, h))
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	le := binary.LittleEndian
	writeU16 := func(v uint16) error { return binary.Write(bw, le, v) }
	writeU32 := func(v uint32) error { return binary.Write(bw, le, v) }
	writeU64 := func(v uint64) error { return binary.Write(bw, le, v) }
	writeF64 := func(v float64) error { return binary.Write(bw, le, math.Float64bits(v)) }

	if err := writeU16(ver); err != nil {
		return err
	}
	// Encoder header.
	if err := writeU16(uint16(b.Kind)); err != nil {
		return err
	}
	cfg := b.Cfg.Default()
	for _, v := range []uint32{
		uint32(cfg.D), uint32(cfg.Features), uint32(cfg.Bins), uint32(cfg.N),
	} {
		if err := writeU32(v); err != nil {
			return err
		}
	}
	useID := uint16(0)
	if cfg.UseID {
		useID = 1
	}
	if err := writeU16(useID); err != nil {
		return err
	}
	if err := writeU64(cfg.Seed); err != nil {
		return err
	}
	if err := writeF64(cfg.Lo); err != nil {
		return err
	}
	if err := writeF64(cfg.Hi); err != nil {
		return err
	}
	// Model header + trainer name (v3+) + class payload.
	m := b.Model
	for _, v := range []uint32{uint32(m.D()), uint32(m.Classes()), uint32(m.BW())} {
		if err := writeU32(v); err != nil {
			return err
		}
	}
	if ver >= 3 {
		if len(b.Trainer) > maxTrainerLen {
			return fmt.Errorf("modelio: trainer name %d bytes, limit %d", len(b.Trainer), maxTrainerLen)
		}
		if err := writeU16(uint16(len(b.Trainer))); err != nil {
			return err
		}
		if _, err := bw.WriteString(b.Trainer); err != nil {
			return err
		}
	}
	if ver >= 4 {
		flags := uint16(0)
		srcBW := uint16(0)
		if b.Binarized {
			flags |= 1
			if b.BinarizedFromBW < 1 || b.BinarizedFromBW > 16 {
				return fmt.Errorf("modelio: binarization source bit-width %d out of range", b.BinarizedFromBW)
			}
			srcBW = uint16(b.BinarizedFromBW)
		}
		if err := writeU16(flags); err != nil {
			return err
		}
		if err := writeU16(srcBW); err != nil {
			return err
		}
	}
	buf := make([]byte, 2)
	for c := 0; c < m.Classes(); c++ {
		for _, x := range m.Class(c) {
			if x > math.MaxInt16 || x < math.MinInt16 {
				return fmt.Errorf("modelio: class %d element %d exceeds 16-bit range", c, x)
			}
			le.PutUint16(buf, uint16(int16(x)))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if ver < 2 {
		return nil
	}
	var footer [4]byte
	le.PutUint32(footer[:], h.Sum32())
	_, err := w.Write(footer[:])
	return err
}

// Read deserializes a bundle and rebuilds the encoder-ready configuration
// and the model (with norms recomputed). Version-2 streams are verified
// against their CRC32 footer; a mismatch returns an error wrapping
// ErrChecksum.
func Read(r io.Reader) (*Bundle, error) {
	br := bufio.NewReader(r)
	// Every content byte read through tr feeds the CRC; the footer (v2) is
	// read from br directly so it is not hashed itself.
	h := crc32.NewIEEE()
	tr := io.TeeReader(br, h)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(tr, head); err != nil {
		return nil, fmt.Errorf("modelio: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("modelio: bad magic %q", head)
	}
	le := binary.LittleEndian
	readU16 := func() (uint16, error) {
		var v uint16
		err := binary.Read(tr, le, &v)
		return v, err
	}
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(tr, le, &v)
		return v, err
	}
	ver, err := readU16()
	if err != nil {
		return nil, err
	}
	if ver != version && ver != versionNoBinary && ver != versionNoTrainer && ver != versionNoChecksum {
		return nil, fmt.Errorf("modelio: unsupported version %d", ver)
	}
	kind, err := readU16()
	if err != nil {
		return nil, err
	}
	var b Bundle
	b.Kind = encoding.Kind(kind)
	var d, features, bins, n uint32
	for _, p := range []*uint32{&d, &features, &bins, &n} {
		if *p, err = readU32(); err != nil {
			return nil, err
		}
	}
	useID, err := readU16()
	if err != nil {
		return nil, err
	}
	var seed uint64
	if err := binary.Read(tr, le, &seed); err != nil {
		return nil, err
	}
	var loBits, hiBits uint64
	if err := binary.Read(tr, le, &loBits); err != nil {
		return nil, err
	}
	if err := binary.Read(tr, le, &hiBits); err != nil {
		return nil, err
	}
	b.Cfg = encoding.Config{
		D: int(d), Features: int(features), Bins: int(bins), N: int(n),
		UseID: useID != 0, Seed: seed,
		Lo: math.Float64frombits(loBits), Hi: math.Float64frombits(hiBits),
	}
	var mD, mClasses, mBW uint32
	for _, p := range []*uint32{&mD, &mClasses, &mBW} {
		if *p, err = readU32(); err != nil {
			return nil, err
		}
	}
	// Bound the header before allocating: a corrupt D or class count must
	// not drive a giant allocation.
	const maxD = 1 << 20
	if mD == 0 || mD > maxD || mD%classifier.SubNormGranularity != 0 || mClasses < 2 || mClasses > 4096 {
		return nil, fmt.Errorf("modelio: implausible model header D=%d classes=%d", mD, mClasses)
	}
	if mBW < 1 || mBW > 16 {
		return nil, fmt.Errorf("modelio: bad bit-width %d", mBW)
	}
	if cd := b.Cfg.Default().D; cd != int(mD) {
		return nil, fmt.Errorf("modelio: encoder D=%d does not match model D=%d", cd, mD)
	}
	if ver >= 3 {
		tlen, err := readU16()
		if err != nil {
			return nil, fmt.Errorf("modelio: reading trainer name: %w", err)
		}
		if tlen > maxTrainerLen {
			return nil, fmt.Errorf("modelio: trainer name %d bytes, limit %d", tlen, maxTrainerLen)
		}
		name := make([]byte, tlen)
		if _, err := io.ReadFull(tr, name); err != nil {
			return nil, fmt.Errorf("modelio: reading trainer name: %w", err)
		}
		b.Trainer = string(name)
	}
	if ver >= 4 {
		flags, err := readU16()
		if err != nil {
			return nil, fmt.Errorf("modelio: reading representation flags: %w", err)
		}
		srcBW, err := readU16()
		if err != nil {
			return nil, fmt.Errorf("modelio: reading binarization bit-width: %w", err)
		}
		if flags&1 != 0 {
			if srcBW < 1 || srcBW > 16 {
				return nil, fmt.Errorf("modelio: bad binarization source bit-width %d", srcBW)
			}
			b.Binarized = true
			b.BinarizedFromBW = int(srcBW)
		}
	}
	// The payload buffer grows with what arrives, so a header claiming more
	// classes × D than the stream carries fails on the truncation, not on
	// an allocation sized by the claim.
	size := int64(mClasses) * int64(mD) * 2
	payload, err := io.ReadAll(io.LimitReader(tr, size))
	if err != nil {
		return nil, fmt.Errorf("modelio: reading class payload: %w", err)
	}
	if int64(len(payload)) != size {
		return nil, fmt.Errorf("modelio: class payload truncated at %d of %d bytes: %w", len(payload), size, io.ErrUnexpectedEOF)
	}
	m := classifier.NewModel(int(mD), int(mClasses), int(mBW))
	tmp := hdc.NewVec(int(mD))
	for c := range int(mClasses) {
		row := payload[c*len(tmp)*2:]
		for i := range tmp {
			tmp[i] = int32(int16(le.Uint16(row[2*i:])))
		}
		m.SetClass(c, tmp)
	}
	if ver >= 2 {
		sum := h.Sum32() // hash of magic..payload, before touching the footer
		var footer [4]byte
		if _, err := io.ReadFull(br, footer[:]); err != nil {
			return nil, fmt.Errorf("modelio: reading checksum footer: %w", err)
		}
		if le.Uint32(footer[:]) != sum {
			return nil, fmt.Errorf("%w (stored %08x, computed %08x)", ErrChecksum, le.Uint32(footer[:]), sum)
		}
		b.HasChecksum = true
	}
	b.Model = m
	return &b, nil
}
