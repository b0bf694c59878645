package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// The oracle: the request structs cmd/generic-serve decoded with
// encoding/json and DisallowUnknownFields before Decode replaced them.
type (
	oraclePredict struct {
		X  []float64   `json:"x,omitempty"`
		Xs [][]float64 `json:"xs,omitempty"`
	}
	oracleAdapt struct {
		X     []float64 `json:"x"`
		Label int       `json:"label"`
	}
)

// The same shapes with pointer elements accept and reject the same bodies,
// but a null element or row, and a null or absent label, decode to nil where
// the structs above store nothing.
type (
	nullsPredict struct {
		X  []*float64   `json:"x"`
		Xs [][]*float64 `json:"xs"`
	}
	nullsAdapt struct {
		X     []*float64 `json:"x"`
		Label *int       `json:"label"`
	}
)

func jsonDecode(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// hasNil reports whether a row holds a null element.
func hasNil(row []*float64) bool { return slices.Contains(row, nil) }

// decodeVsOracle decodes body with Decode and with encoding/json and fails
// on any disagreement outside the contract: Decode may never accept what
// the oracle rejects; it rejects with ErrNullFeature exactly the accepted
// bodies whose "x" or "xs" holds a null; and otherwise it accepts, with
// bit-identical values and HasLabel true exactly when the last "label" was
// an integer.
func decodeVsOracle(t *testing.T, body []byte, kind Body) (*Request, error) {
	t.Helper()
	req := new(Request)
	err := req.Decode(body, kind)
	var (
		want       Request
		oerr, nerr error
		null       bool
	)
	if kind == PredictBody {
		var o oraclePredict
		var n nullsPredict
		oerr, nerr = jsonDecode(body, &o), jsonDecode(body, &n)
		want.X, want.Xs = o.X, o.Xs
		null = hasNil(n.X) || slices.ContainsFunc(n.Xs, func(row []*float64) bool { return row == nil || hasNil(row) })
	} else {
		var o oracleAdapt
		var n nullsAdapt
		oerr, nerr = jsonDecode(body, &o), jsonDecode(body, &n)
		want.X, want.Label, want.HasLabel = o.X, o.Label, n.Label != nil
		null = hasNil(n.X)
	}
	if (oerr == nil) != (nerr == nil) {
		t.Fatalf("oracles disagree on %q: %v / %v", body, oerr, nerr)
	}
	switch {
	case oerr != nil:
		if err == nil {
			t.Fatalf("Decode(%q) accepted a body encoding/json rejects (%v): %+v", body, oerr, req)
		}
	case null:
		if !errors.Is(err, ErrNullFeature) {
			t.Fatalf("Decode(%q) = %v, want ErrNullFeature", body, err)
		}
	case err != nil:
		t.Fatalf("Decode(%q) = %v; encoding/json accepts it", body, err)
	default:
		if msg := diffRequest(req, &want); msg != "" {
			t.Fatalf("Decode(%q): %s", body, msg)
		}
	}
	return req, err
}

// diffRequest compares decoded fields bit for bit, nil-ness included, and
// the label only where one was given.
func diffRequest(got, want *Request) string {
	if !sameFloats(got.X, want.X) {
		return "x = " + show(got.X) + ", want " + show(want.X)
	}
	if (got.Xs == nil) != (want.Xs == nil) || len(got.Xs) != len(want.Xs) {
		return "xs shape differs"
	}
	for i := range got.Xs {
		if !sameFloats(got.Xs[i], want.Xs[i]) {
			return "xs row " + strconv.Itoa(i) + " = " + show(got.Xs[i]) + ", want " + show(want.Xs[i])
		}
	}
	if got.HasLabel != want.HasLabel || got.HasLabel && got.Label != want.Label {
		return "label differs"
	}
	return ""
}

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func show(x []float64) string {
	if x == nil {
		return "nil"
	}
	b, _ := json.Marshal(x)
	return string(b)
}

// contractCases are bodies whose outcome encoding/json settles; want nil
// means rejected.
var contractCases = []struct {
	name string
	kind Body
	body string
	want *Request
}{
	{"plain", PredictBody, `{"x":[1,2.5,-3]}`, &Request{X: []float64{1, 2.5, -3}}},
	{"batch", PredictBody, `{"xs":[[1],[2,3]]}`, &Request{Xs: [][]float64{{1}, {2, 3}}}},
	{"adapt", AdaptBody, `{"x":[0.5],"label":7}`, &Request{X: []float64{0.5}, Label: 7, HasLabel: true}},
	{"whitespace", PredictBody, " \t\r\n{ \"x\" :\n[ 1 ,\t2 ] } ", &Request{X: []float64{1, 2}}},

	// Keys fold case under Unicode simple folding, escapes included.
	{"fold upper", PredictBody, `{"X":[1]}`, &Request{X: []float64{1}}},
	{"fold long s", PredictBody, `{"xſ":[[1]]}`, &Request{Xs: [][]float64{{1}}}},
	{"fold escaped", PredictBody, `{"\u0058\u017f":[[1]]}`, &Request{Xs: [][]float64{{1}}}},
	{"escaped x", PredictBody, `{"\u0078":[1]}`, &Request{X: []float64{1}}},
	{"fold label", AdaptBody, `{"LaBeL":3,"x":[1]}`, &Request{X: []float64{1}, Label: 3, HasLabel: true}},
	{"surrogate pair key", PredictBody, `{"𝄞":[1]}`, nil},
	{"lone surrogate key", PredictBody, `{"\ud800x":[1]}`, nil},

	// The last of duplicate keys wins, a null among them too.
	{"dup x", PredictBody, `{"x":[1],"x":[2,3]}`, &Request{X: []float64{2, 3}}},
	{"dup label", AdaptBody, `{"label":1,"x":[0],"label":2}`, &Request{X: []float64{0}, Label: 2, HasLabel: true}},
	{"null overridden", PredictBody, `{"x":[null],"x":[1]}`, &Request{X: []float64{1}}},
	{"dup xs", PredictBody, `{"xs":[[1],[2]],"x":[9],"xs":[[3]]}`, &Request{X: []float64{9}, Xs: [][]float64{{3}}}},

	// A null field counts as absent; a top-level null is the empty request.
	{"null x", PredictBody, `{"x":null}`, &Request{}},
	{"x then null", PredictBody, `{"x":[1],"x":null}`, &Request{}},
	{"null xs", PredictBody, `{"xs":null}`, &Request{}},
	{"null label", AdaptBody, `{"x":[0],"label":null}`, &Request{X: []float64{0}}},
	{"label then null", AdaptBody, `{"x":[0],"label":3,"label":null}`, &Request{X: []float64{0}}},
	{"missing label", AdaptBody, `{"x":[0]}`, &Request{X: []float64{0}}},
	{"top null", PredictBody, `null`, &Request{}},
	{"top null then junk", AdaptBody, ` nullx`, &Request{}},
	{"empty object", PredictBody, `{}`, &Request{}},

	// Empty arrays are present, not absent.
	{"empty x", PredictBody, `{"x":[]}`, &Request{X: []float64{}}},
	{"empty xs", PredictBody, `{"xs":[ ]}`, &Request{Xs: [][]float64{}}},
	{"empty row", PredictBody, `{"xs":[[],[1]]}`, &Request{Xs: [][]float64{{}, {1}}}},
	{"only an empty row", PredictBody, `{"Xs":[[]]}`, &Request{Xs: [][]float64{{}}}},

	// Number grammar and range.
	{"leading zero", PredictBody, `{"x":[01]}`, nil},
	{"plus", PredictBody, `{"x":[+1]}`, nil},
	{"bare point", PredictBody, `{"x":[1.]}`, nil},
	{"point first", PredictBody, `{"x":[.5]}`, nil},
	{"bare exponent", PredictBody, `{"x":[1e]}`, nil},
	{"bare minus", PredictBody, `{"x":[-]}`, nil},
	{"NaN", PredictBody, `{"x":[NaN]}`, nil},
	{"hex", PredictBody, `{"x":[0x1]}`, nil},
	{"too large", PredictBody, `{"x":[1e400]}`, nil},
	{"too large negative", AdaptBody, `{"x":[-1e400],"label":0}`, nil},
	{"underflow is zero", PredictBody, `{"x":[1e-400,-1e-400]}`, &Request{X: []float64{0, math.Copysign(0, -1)}}},
	{"exact edges", PredictBody, `{"x":[-0,5e-324,2.2250738585072011e-308,1.7976931348623157e308,9007199254740993,0.30000000000000004,1E+2,1e0000000000000000000022]}`,
		&Request{X: []float64{math.Copysign(0, -1), 5e-324, 2.2250738585072011e-308, math.MaxFloat64, 9007199254740993, 0.30000000000000004, 100, 1e22}}},

	// The label is an integer literal that fits an int.
	{"label exponent", AdaptBody, `{"x":[0],"label":1e2}`, nil},
	{"label fraction", AdaptBody, `{"x":[0],"label":1.0}`, nil},
	{"label string", AdaptBody, `{"x":[0],"label":"1"}`, nil},
	{"label negative zero", AdaptBody, `{"x":[0],"label":-0}`, &Request{X: []float64{0}, HasLabel: true}},
	{"label overflow", AdaptBody, `{"x":[0],"label":99999999999999999999}`, nil},

	// Bytes after the closing brace are never read.
	{"trailing junk", PredictBody, `{"x":[1]}garbage`, &Request{X: []float64{1}}},
	{"trailing brace", PredictBody, `{"x":[1]}}`, &Request{X: []float64{1}}},
	{"second value", PredictBody, `{"x":[1]} {"x":[2]}`, &Request{X: []float64{1}}},

	// Unknown fields and wrong types.
	{"unknown", PredictBody, `{"bogus":1}`, nil},
	{"label on predict", PredictBody, `{"x":[1],"label":1}`, nil},
	{"xs on adapt", AdaptBody, `{"xs":[[1]],"label":1}`, nil},
	{"x string", PredictBody, `{"x":"1"}`, nil},
	{"x nested", PredictBody, `{"x":[[1]]}`, nil},
	{"xs flat", PredictBody, `{"xs":[1]}`, nil},
	{"x object", PredictBody, `{"x":{}}`, nil},
	{"top array", PredictBody, `[1]`, nil},
	{"top number", PredictBody, `1`, nil},
	{"top string", AdaptBody, `"x"`, nil},

	// Syntax.
	{"trailing comma", PredictBody, `{"x":[1],}`, nil},
	{"element comma", PredictBody, `{"x":[1,]}`, nil},
	{"missing colon", PredictBody, `{"x" [1]}`, nil},
	{"control char in key", PredictBody, "{\"x\n\":[1]}", nil},
	{"bad escape", PredictBody, `{"\x":[1]}`, nil},
	{"bad hex escape", PredictBody, `{"\u00g8":[1]}`, nil},
	{"single quotes", PredictBody, `{'x':[1]}`, nil},
	{"truncated", PredictBody, `{"x":[1`, nil},
	{"truncated null", PredictBody, `nul`, nil},
	{"empty", PredictBody, ``, nil},
}

// TestDecodeContract pins what encoding/json settles, checking every case
// against the oracle too.
func TestDecodeContract(t *testing.T) {
	for _, tc := range contractCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := decodeVsOracle(t, []byte(tc.body), tc.kind)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("accepted: %+v", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if msg := diffRequest(got, tc.want); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// TestDecodeEOF pins the errors a client sees for an empty or cut-off body,
// which are encoding/json's.
func TestDecodeEOF(t *testing.T) {
	var req Request
	for _, body := range []string{"", " \n"} {
		if err := req.Decode([]byte(body), PredictBody); err != io.EOF {
			t.Errorf("Decode(%q) = %v, want io.EOF", body, err)
		}
	}
	for _, body := range []string{"{", `{"x"`, `{"x":`, `{"x":[1`, `{"x":[1,`, `{"x":[-`, `{"x":[1e`, `{"\u00`, `n`, `{"x":[1],`} {
		if err := req.Decode([]byte(body), PredictBody); err != io.ErrUnexpectedEOF {
			t.Errorf("Decode(%q) = %v, want io.ErrUnexpectedEOF", body, err)
		}
	}
}

// TestDecodeRejectsNullFeatures pins the one departure from encoding/json:
// a null inside "x" or "xs" is ErrNullFeature. encoding/json stores
// nothing for such an element, so the daemon served 0 for it in a fresh
// array and, after a duplicate key, the earlier array's value.
func TestDecodeRejectsNullFeatures(t *testing.T) {
	for _, tc := range []struct {
		kind Body
		body string
		old  oraclePredict // what encoding/json stored
	}{
		{PredictBody, `{"x":[1,null,3]}`, oraclePredict{X: []float64{1, 0, 3}}},
		{PredictBody, `{"x":[1,2],"x":[null]}`, oraclePredict{X: []float64{1}}},
		{PredictBody, `{"x":[1,2,3],"x":[4],"x":[null,null]}`, oraclePredict{X: []float64{4, 2}}},
		{PredictBody, `{"xs":[[1,null]]}`, oraclePredict{Xs: [][]float64{{1, 0}}}},
		{PredictBody, `{"xs":[[1],null]}`, oraclePredict{Xs: [][]float64{{1}, nil}}},
		{AdaptBody, `{"x":[null],"label":1}`, oraclePredict{X: []float64{0}}},
	} {
		var old oraclePredict
		if tc.kind == PredictBody {
			if err := jsonDecode([]byte(tc.body), &old); err != nil {
				t.Fatal(err)
			}
		} else {
			var a oracleAdapt
			if err := jsonDecode([]byte(tc.body), &a); err != nil {
				t.Fatal(err)
			}
			old.X = a.X
		}
		if msg := diffRequest(&Request{X: old.X, Xs: old.Xs}, &Request{X: tc.old.X, Xs: tc.old.Xs}); msg != "" {
			t.Errorf("encoding/json on %s: %s", tc.body, msg)
		}
		var req Request
		if err := req.Decode([]byte(tc.body), tc.kind); !errors.Is(err, ErrNullFeature) {
			t.Errorf("Decode(%s) = %v, want ErrNullFeature", tc.body, err)
		}
	}
}

// TestRequestReuse decodes a batch and then a smaller single body into one
// pooled Request: nothing of the first may show through the second.
func TestRequestReuse(t *testing.T) {
	req := GetRequest()
	defer req.Release()
	body, err := req.ReadBody(iotest.OneByteReader(strings.NewReader(`{"xs":[[1,2],[3,4,5]],"x":[6]}`)))
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Decode(body, PredictBody); err != nil {
		t.Fatal(err)
	}
	if msg := diffRequest(req, &Request{X: []float64{6}, Xs: [][]float64{{1, 2}, {3, 4, 5}}}); msg != "" {
		t.Fatal(msg)
	}
	if cap(req.Xs[0]) != 2 {
		t.Errorf("row 0 has capacity %d: appending to it would overwrite row 1", cap(req.Xs[0]))
	}
	body, err = req.ReadBody(strings.NewReader(`{"x":[7],"label":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Decode(body, AdaptBody); err != nil {
		t.Fatal(err)
	}
	if msg := diffRequest(req, &Request{X: []float64{7}, Label: 1, HasLabel: true}); msg != "" {
		t.Fatal(msg)
	}
}

// FuzzDecodeRequest holds Decode to encoding/json on arbitrary bodies of
// either kind (see decodeVsOracle).
func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range contractCases {
		f.Add([]byte(tc.body), tc.kind == AdaptBody)
	}
	f.Add([]byte(`{"x":[1,null,3]}`), false)
	f.Add([]byte(`{"xs":[[1],null]}`), false)
	f.Add([]byte(`{"x":[0.5,-0.25],"label":3,"label":null}`), true)
	f.Fuzz(func(t *testing.T, body []byte, adapt bool) {
		kind := PredictBody
		if adapt {
			kind = AdaptBody
		}
		decodeVsOracle(t, body, kind)
	})
}

// jsonNumber is RFC 8259's number grammar, written independently of
// parseNumber.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// FuzzParseNumber holds parseNumber to the JSON number grammar and to
// strconv.ParseFloat bit for bit: it scans the longest JSON number at the
// start of its input, and an out-of-range literal is strconv.ErrRange.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "-0.0e-0", "1", "0.1", "10.5", "0.000123", "123456.789e-3",
		"5e-324", "4.9406564584124654e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
		"1.7976931348623157e308", "1.7976931348623159e308", "1e400", "-1e400", "1e-400", "0e99999",
		"9007199254740992", "9007199254740993", "0.30000000000000004", "-1.2345678901234567",
		"123456789012345678901234567890", "1e22", "1e23", "1.5e-22", "1e-23", "1E+22", "1e0000000000000000000022",
		"01", "+1", "1.", ".5", "1e", "1e+", "-", "", "0x10", "1_0", "Inf", "NaN", "1x", "2]",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, end, err := parseNumber([]byte(s), 0)
		whole := jsonNumber.MatchString(s)
		if err == nil || errors.Is(err, strconv.ErrRange) {
			lit := s[:end]
			if !jsonNumber.MatchString(lit) {
				t.Fatalf("parseNumber(%q) accepted %q, not a JSON number", s, lit)
			}
			if whole && end != len(s) {
				t.Fatalf("parseNumber(%q) stopped at %d", s, end)
			}
			want, werr := strconv.ParseFloat(lit, 64)
			if (err == nil) != (werr == nil) {
				t.Fatalf("parseNumber(%q) error %v, ParseFloat %v", lit, err, werr)
			}
			if err == nil && math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("parseNumber(%q) = %v (%#x), ParseFloat %v (%#x)", lit, v, math.Float64bits(v), want, math.Float64bits(want))
			}
			return
		}
		if whole {
			t.Fatalf("parseNumber(%q) rejected a JSON number: %v", s, err)
		}
	})
}
