package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// Request bodies of cmd/generic-serve are decoded here, in one pass over
// the bytes and without reflection. For the two body shapes
//
//	/predict  {"x":[…]} or {"xs":[[…],…]}
//	/adapt    {"x":[…],"label":k}
//
// Decode accepts and rejects what encoding/json with DisallowUnknownFields
// accepts and rejects for the structs
//
//	struct{ X []float64 `json:"x"`; Xs [][]float64 `json:"xs"` }
//	struct{ X []float64 `json:"x"`; Label int `json:"label"` }
//
// and stores bit-identical values: keys match field names case-insensitively
// under Unicode simple folding ("xſ" is xs), the last of duplicate keys
// wins, a null field counts as absent, a top-level null decodes to the empty
// request, numbers follow the JSON grammar exactly and convert as
// strconv.ParseFloat does (out of range is an error), the label must be an
// integer literal, and bytes after the closing brace are ignored. It departs
// from encoding/json in one place: a null element of "x", or a null row or
// element of "xs", is ErrNullFeature. encoding/json stores nothing for such
// an element, so it served 0 in a fresh array and, after a duplicate key,
// the earlier array's value. Whether an integer label was given is
// reported (HasLabel) instead of defaulting to 0; refusing a body without
// one is the caller's decision. FuzzDecodeRequest holds Decode to this
// contract with encoding/json as the oracle.

// ErrNullFeature rejects a body whose "x" or "xs" holds a null feature value
// or row.
var ErrNullFeature = errors.New("serve: null is not a feature value")

// Body selects which request shape Decode accepts.
type Body uint8

const (
	// PredictBody accepts the keys "x" and "xs".
	PredictBody Body = iota
	// AdaptBody accepts the keys "x" and "label".
	AdaptBody
)

// A Request is one decoded request body. X and the rows of Xs alias storage
// the Request owns and reuses, so they are valid only until Release or the
// next Decode.
type Request struct {
	X        []float64   // "x"; nil when absent or null
	Xs       [][]float64 // "xs"; nil when absent or null
	Label    int         // "label", when HasLabel
	HasLabel bool        // the last "label" key held an integer, not null

	body bytes.Buffer // ReadBody's buffer
	vals []float64    // every parsed feature value, in body order
	rows [][]float64  // backing array of Xs
	ends []int        // offsets in vals where the rows of the last "xs" end
}

// maxPooledBytes bounds the buffers a released Request keeps: a large batch
// body must not pin its memory in the pool.
const maxPooledBytes = 1 << 20

var requestPool = sync.Pool{New: func() any { return new(Request) }}

// GetRequest returns an empty Request from a pool; hand it back with
// Release once nothing reads its slices any more.
func GetRequest() *Request { return requestPool.Get().(*Request) }

// Release returns r to the pool. A Request holding a buffer above about
// 1 MiB is dropped for the collector instead.
func (r *Request) Release() {
	if r.body.Cap() > maxPooledBytes || cap(r.vals) > maxPooledBytes/8 ||
		cap(r.rows) > maxPooledBytes/24 || cap(r.ends) > maxPooledBytes/8 {
		return
	}
	r.reset()
	r.body.Reset()
	requestPool.Put(r)
}

// reset empties the decoded fields, keeping the storage.
func (r *Request) reset() {
	clear(r.rows) // drop row headers into a vals backing array append may have replaced
	r.X, r.Xs, r.Label, r.HasLabel = nil, nil, 0, false
	r.vals, r.rows, r.ends = r.vals[:0], r.rows[:0], r.ends[:0]
}

// ReadBody reads rd to EOF into r's reusable buffer and returns the bytes,
// which stay valid until Release.
func (r *Request) ReadBody(rd io.Reader) ([]byte, error) {
	r.body.Reset()
	_, err := r.body.ReadFrom(rd)
	return r.body.Bytes(), err
}

// noVals and noRows back the non-nil empty slices an empty array decodes
// to ("x":[] is present, unlike an absent "x") without allocating.
var (
	noVals [0]float64
	noRows [0][]float64
)

// A span is where the last value of "x" or "xs" sits in Request.vals: an
// "x" array is vals[start:end], and the rows of an "xs" array start at
// start and end at Request.ends.
type span struct {
	set        bool // the value was an array, not null
	null       bool // the array held a null element or row
	start, end int
}

// field names a request key.
type field uint8

const (
	fieldUnknown field = iota
	fieldX
	fieldXs
	fieldLabel
)

// Decode parses body as a request of the given kind into r, replacing what
// r held; see the contract at the top of this file. The decoded slices
// alias r's storage, not body.
//
//generic:hotpath
func (r *Request) Decode(body []byte, kind Body) error {
	r.reset()
	i := skipSpace(body, 0)
	if i == len(body) {
		return io.EOF
	}
	if body[i] == 'n' {
		_, err := literalNull(body, i)
		return err
	}
	if body[i] != '{' {
		return errAt(body, i, "looking for beginning of object")
	}
	var x, xs span
	for i = skipSpace(body, i+1); i >= len(body) || body[i] != '}'; {
		if i >= len(body) || body[i] != '"' {
			return errAt(body, i, "looking for beginning of object key string")
		}
		f, j, err := scanKey(body, i+1, kind)
		if err != nil {
			return err
		}
		if f == fieldUnknown {
			return unknownField(body[i+1 : j-1])
		}
		i = skipSpace(body, j)
		if i >= len(body) || body[i] != ':' {
			return errAt(body, i, "after object key")
		}
		if i = skipSpace(body, i+1); i >= len(body) {
			return io.ErrUnexpectedEOF
		}
		switch f {
		case fieldX:
			i, err = r.row(body, i, &x)
		case fieldXs:
			i, err = r.rowList(body, i, &xs)
		default:
			i, err = r.label(body, i)
		}
		if err != nil {
			return err
		}
		if i = skipSpace(body, i); i < len(body) && body[i] == ',' {
			i = skipSpace(body, i+1)
			if i < len(body) && body[i] == '}' {
				return errAt(body, i, "looking for beginning of object key string")
			}
		} else if i >= len(body) || body[i] != '}' {
			return errAt(body, i, "after object key:value pair")
		}
	}
	if x.null || xs.null {
		return ErrNullFeature
	}
	vals := r.vals
	if vals == nil { // no value parsed yet; empty arrays still decode non-nil
		vals = noVals[:]
	}
	if x.set {
		r.X = vals[x.start:x.end:x.end]
	}
	if xs.set {
		start := xs.start
		for _, end := range r.ends {
			r.rows = append(r.rows, vals[start:end:end])
			start = end
		}
		if r.Xs = r.rows; r.Xs == nil {
			r.Xs = noRows[:]
		}
	}
	return nil
}

// row parses the "x" value at b[i] (null or an array of numbers) into s.
//
//generic:hotpath
func (r *Request) row(b []byte, i int, s *span) (int, error) {
	if b[i] == 'n' {
		*s = span{}
		return literalNull(b, i)
	}
	if b[i] != '[' {
		return i, errAt(b, i, `looking for the array of "x"`)
	}
	*s = span{set: true, start: len(r.vals)}
	i, null, err := r.numbers(b, i+1)
	s.null, s.end = null, len(r.vals)
	return i, err
}

// rowList parses the "xs" value at b[i] (null or an array of rows, each an
// array of numbers) into s and r.ends.
//
//generic:hotpath
func (r *Request) rowList(b []byte, i int, s *span) (int, error) {
	if b[i] == 'n' {
		*s = span{}
		return literalNull(b, i)
	}
	if b[i] != '[' {
		return i, errAt(b, i, `looking for the array of "xs"`)
	}
	*s = span{set: true, start: len(r.vals)}
	r.ends = r.ends[:0]
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return i + 1, nil
	}
	for {
		var err error
		switch {
		case i < len(b) && b[i] == '[':
			var null bool
			i, null, err = r.numbers(b, i+1)
			s.null = s.null || null
		case i < len(b) && b[i] == 'n':
			i, err = literalNull(b, i)
			s.null = true
		default:
			return i, errAt(b, i, `looking for a row of "xs"`)
		}
		if err != nil {
			return i, err
		}
		r.ends = append(r.ends, len(r.vals))
		var more bool
		if i, more, err = listNext(b, i); err != nil || !more {
			return i, err
		}
	}
}

// numbers parses array elements from just after the opening bracket
// through the closing one, appending each number to r.vals. null reports
// whether an element was null; nulls append nothing.
//
//generic:hotpath
func (r *Request) numbers(b []byte, i int) (end int, null bool, err error) {
	if i = skipSpace(b, i); i < len(b) && b[i] == ']' {
		return i + 1, false, nil
	}
	for {
		if i < len(b) && b[i] == 'n' {
			i, err = literalNull(b, i)
			null = true
		} else {
			var v float64
			if v, i, err = parseNumber(b, i); err == nil {
				r.vals = append(r.vals, v)
			}
		}
		if err != nil {
			return i, null, err
		}
		var more bool
		if i, more, err = listNext(b, i); err != nil || !more {
			return i, null, err
		}
	}
}

// listNext consumes the separator after an array element: a ',' and the
// space after it (more is true), or the closing ']'.
//
//generic:hotpath
func listNext(b []byte, i int) (next int, more bool, err error) {
	i = skipSpace(b, i)
	if i < len(b) {
		switch b[i] {
		case ',':
			return skipSpace(b, i+1), true, nil
		case ']':
			return i + 1, false, nil
		}
	}
	return i, false, errAt(b, i, "after array element")
}

// label parses the "label" value at b[i]: null (absent) or an integer
// literal that fits an int, as encoding/json requires of an int field.
//
//generic:hotpath
func (r *Request) label(b []byte, i int) (int, error) {
	if b[i] == 'n' {
		r.Label, r.HasLabel = 0, false
		return literalNull(b, i)
	}
	_, j, err := parseNumber(b, i) // the JSON grammar; the value itself is unused
	if err != nil {
		return j, err
	}
	n, err := strconv.ParseInt(string(b[i:j]), 10, 0)
	if err != nil {
		return j, badLabel(b[i:j])
	}
	r.Label, r.HasLabel = int(n), true
	return j, nil
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseNumber scans the JSON number at b[i:], checking its grammar while it
// accumulates the decimal mantissa, and returns its float64 value and the
// index past it. The value is bit-identical to strconv.ParseFloat's: when
// the mantissa is at most 2^53 and the power of ten within ±22, both
// operands are exact and one multiply or divide rounds correctly (strconv's
// own exact path); otherwise ParseFloat runs on the literal. A literal out
// of float64's range is an error, as it is for encoding/json.
//
//generic:hotpath
func parseNumber(b []byte, i int) (float64, int, error) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	nd, exp := 0, 0 // significant digits in mant; decimal exponent
	trunc := false  // more than 19 significant digits: mant is not the value
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && isDigit(b[i]); i++ {
			if nd < 19 {
				mant = mant*10 + uint64(b[i]-'0')
				nd++
			} else {
				trunc = true
			}
		}
	default:
		return 0, i, errAt(b, i, "looking for a number")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			return 0, i, errAt(b, i, "after decimal point in numeric literal")
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			switch d := b[i] - '0'; {
			case nd == 0 && d == 0: // a leading zero only scales
				exp--
			case nd < 19:
				mant = mant*10 + uint64(d)
				nd++
				exp--
			default:
				trunc = true
			}
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '-' || b[i] == '+') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return 0, i, errAt(b, i, "in exponent of numeric literal")
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 { // far past float64's range either way; no overflow
				e = e*10 + int(b[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if !trunc && mant <= 1<<53 && -22 <= exp && exp <= 22 {
		f := float64(mant)
		if neg {
			f = -f
		}
		if exp < 0 {
			return f / float64pow10[-exp], i, nil
		}
		return f * float64pow10[exp], i, nil
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil { // valid JSON, so out of range
		return 0, i, outOfRange(b[start:i])
	}
	return f, i, nil
}

// scanKey scans the object key whose opening quote is b[i-1], checking the
// string grammar, and returns the field the key names under kind and the
// index past its closing quote. As in encoding/json, the key is unescaped
// and then matched case-insensitively under Unicode simple folding
// (bytes.EqualFold): "X" is x and "xſ" is xs.
//
//generic:hotpath
func scanKey(b []byte, i int, kind Body) (field, int, error) {
	// The longest key that folds to a field name is "label", 5 bytes; a
	// longer unescaped key names no field and is only checked for grammar.
	var key [8]byte
	n := 0 // unescaped length so far
	for ; i < len(b); i++ {
		c := b[i]
		switch {
		case c == '"' && n > len(key):
			return fieldUnknown, i + 1, nil
		case c == '"':
			return keyField(key[:n], kind), i + 1, nil
		case c < 0x20:
			return 0, i, errAt(b, i, "in string literal")
		case c != '\\':
			if n < len(key) {
				key[n] = c
			}
			n++
			continue
		}
		if i++; i < len(b) && bytes.IndexByte([]byte(`"\/bfnrt`), b[i]) >= 0 {
			n = len(key) + 1 // a character no field name holds
			continue
		}
		if i >= len(b) || b[i] != 'u' {
			return 0, i, errAt(b, i, "in string escape code")
		}
		var u rune
		for k := 1; k <= 4; k++ {
			h := rune(-1)
			if i+k < len(b) {
				h = unhex(b[i+k])
			}
			if h < 0 {
				return 0, i + k, errAt(b, i+k, `in \u hexadecimal character escape`)
			}
			u = u<<4 | h
		}
		i += 4
		// A surrogate pair decodes above U+FFFF and a lone half to U+FFFD;
		// neither folds to a letter of a field name.
		if utf16.IsSurrogate(u) || n+utf8.RuneLen(u) > len(key) {
			n = len(key) + 1
		} else {
			n += utf8.EncodeRune(key[n:], u)
		}
	}
	return 0, i, io.ErrUnexpectedEOF
}

// keyField matches an unescaped key against the field names kind accepts.
func keyField(key []byte, kind Body) field {
	switch {
	case bytes.EqualFold(key, []byte("x")):
		return fieldX
	case kind == PredictBody && bytes.EqualFold(key, []byte("xs")):
		return fieldXs
	case kind == AdaptBody && bytes.EqualFold(key, []byte("label")):
		return fieldLabel
	}
	return fieldUnknown
}

// literalNull checks the literal null at b[i:] and returns the index past
// it.
//
//generic:hotpath
func literalNull(b []byte, i int) (int, error) {
	for k := 0; k < len("null"); k++ {
		if i+k >= len(b) || b[i+k] != "null"[k] {
			return i + k, errAt(b, i+k, "in literal null")
		}
	}
	return i + len("null"), nil
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
//
//generic:hotpath
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// errAt reports b[i] as unexpected in context, or io.ErrUnexpectedEOF when
// the body ends first.
func errAt(b []byte, i int, context string) error {
	if i >= len(b) {
		return io.ErrUnexpectedEOF
	}
	return badChar(b[i], context)
}

// badChar, unknownField, outOfRange and badLabel build rejections. They stay out of
// line: inlined, their formatting would count as a heap escape inside the
// hot functions that call them.
//
//go:noinline
func badChar(c byte, context string) error {
	return fmt.Errorf("invalid character %q %s", []byte{c}, context)
}

//go:noinline
func unknownField(key []byte) error { return fmt.Errorf("unknown field %q", key) }

//go:noinline
func outOfRange(lit []byte) error { return fmt.Errorf("number %s: %w", lit, strconv.ErrRange) }

//go:noinline
func badLabel(lit []byte) error {
	return fmt.Errorf("label must be an integer that fits an int, not %s", lit)
}
