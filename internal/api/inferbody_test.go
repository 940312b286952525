package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// smallcnnInSize is the served smallcnn model's input size (3×16×16).
const smallcnnInSize = 768

// parityRow draws n finite values, cycling through the classes that stress
// a decimal-to-binary conversion: normals, eighths (short exact decimals),
// subnormals, the largest magnitudes, negative zero and random finite bit
// patterns.
func parityRow(rng *rand.Rand, n int) []float64 {
	row := make([]float64, n)
	for j := range row {
		var v float64
		switch j % 6 {
		case 0:
			v = rng.NormFloat64()
		case 1:
			v = float64(rng.Intn(4096)-2048) / 8
		case 2:
			v = math.Float64frombits(rng.Uint64() & (1<<63 | (1<<52 - 1))) // ±subnormal or ±0
		case 3:
			v = math.MaxFloat64
			if rng.Intn(2) == 0 {
				v = -v
			}
		case 4:
			v = math.Copysign(0, -1)
		case 5:
			for v = math.Inf(1); math.IsInf(v, 0) || math.IsNaN(v); {
				v = math.Float64frombits(rng.Uint64())
			}
		}
		row[j] = v
	}
	return row
}

// handSpaced writes rows with JSON whitespace around every token and each
// number in a form json.Marshal never writes: upper-case or signed
// exponents, 21 significant digits, or padded fractions.
func handSpaced(rows [][]float64) []byte {
	var sb strings.Builder
	sb.WriteString("\r\n{ \"inputs\"\t:\n[ ")
	for i, row := range rows {
		if i > 0 {
			sb.WriteString(" ,\n ")
		}
		sb.WriteString("[\t")
		for j, v := range row {
			if j > 0 {
				sb.WriteString(" , ")
			}
			var s string
			switch j % 4 {
			case 0:
				s = strings.ToUpper(strconv.FormatFloat(v, 'e', -1, 64))
			case 1:
				s = strconv.FormatFloat(v, 'e', 20, 64)
			case 2:
				s = strconv.FormatFloat(v, 'g', 17, 64)
			case 3:
				s = strconv.FormatFloat(v, 'f', -1, 64)
				if !strings.Contains(s, ".") {
					s += ".000"
				}
			}
			sb.WriteString(s)
		}
		sb.WriteString(" ]")
	}
	sb.WriteString("\n] }\t\n")
	return []byte(sb.String())
}

// sameRows reports where got and want first differ, comparing bits.
func sameRows(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d values, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Errorf("row %d value %d: %v (%#x), encoding/json %v (%#x)", i, j,
					got[i][j], math.Float64bits(got[i][j]), want[i][j], math.Float64bits(want[i][j]))
			}
		}
	}
	return nil
}

// TestParseInferRequestMatchesJSON holds ParseInferRequest to
// json.Unmarshal, bit for bit, on seeded bodies of 1 and 8 rows in the
// compact form json.Marshal writes, the indented form and a hand-spaced
// form with non-shortest literals.
func TestParseInferRequestMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 8} {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = parityRow(rng, smallcnnInSize)
		}
		compact, err := json.Marshal(InferRequest{Inputs: rows})
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(InferRequest{Inputs: rows}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range []struct {
			name string
			body []byte
		}{{"compact", compact}, {"indented", indented}, {"hand-spaced", handSpaced(rows)}} {
			t.Run(fmt.Sprintf("%d-rows/%s", n, form.name), func(t *testing.T) {
				var want InferRequest
				if err := json.Unmarshal(form.body, &want); err != nil {
					t.Fatal(err)
				}
				got, err := ParseInferRequest(form.body, 64, smallcnnInSize)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameRows(got.Inputs, want.Inputs); err != nil {
					t.Fatal(err)
				}
				if form.name == "compact" {
					if err := sameRows(got.Inputs, rows); err != nil {
						t.Fatalf("against the marshalled values: %v", err)
					}
				}
				for i, row := range got.Inputs {
					if cap(row) != smallcnnInSize {
						t.Fatalf("row %d has capacity %d, want %d", i, cap(row), smallcnnInSize)
					}
				}
			})
		}
	}
}

// refusedBodies are bodies encoding/json either refuses or decodes more
// loosely than the served grammar allows, each with the byte offset its
// error must name.
var refusedBodies = []struct {
	name, body string
	at         int
}{
	{"empty body", ``, 0},
	{"truncated", `{"inputs":`, 10},
	{"leading zero", `{"inputs":[[01]]}`, 13},
	{"bare fraction", `{"inputs":[[.5]]}`, 12},
	{"bare point", `{"inputs":[[1.]]}`, 14},
	{"plus sign", `{"inputs":[[+1]]}`, 12},
	{"lone minus", `{"inputs":[[-]]}`, 13},
	{"empty exponent", `{"inputs":[[1e]]}`, 14},
	{"NaN", `{"inputs":[[NaN]]}`, 12},
	{"Infinity", `{"inputs":[[Infinity]]}`, 12},
	{"out of range", `{"inputs":[[1e400]]}`, 12},
	{"string value", `{"inputs":[["1"]]}`, 12},
	{"hex", `{"inputs":[[0x10]]}`, 13},
	{"trailing comma", `{"inputs":[[1,]]}`, 14},
	{"extra bracket", `{"inputs":[[1]]]}`, 15},
	{"trailing data", `{"inputs":[[1]]} {}`, 17},
	{"unknown member", `{"inputs":[[1]],"model":"mlp"}`, 15},
	{"duplicate member", `{"inputs":[[1]],"inputs":[[2]]}`, 15},
	{"case-folded key", `{"Inputs":[[1]]}`, 1},
	{"null inputs", `{"inputs":null}`, 10},
	{"null row", `{"inputs":[null]}`, 11},
	{"flat inputs", `{"inputs":[1,2]}`, 11},
	{"65 rows", `{"inputs":[` + strings.Repeat(`[1],`, 64) + `[1]]}`, 11 + 64*4},
}

// TestParseInferRequestRefuses pins each refusal and the byte offset its
// error names.
func TestParseInferRequestRefuses(t *testing.T) {
	for _, tc := range refusedBodies {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseInferRequest([]byte(tc.body), 64, smallcnnInSize)
			if err == nil {
				t.Fatalf("accepted %q", tc.body)
			}
			if want := fmt.Sprintf("byte %d: ", tc.at); !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("error %q does not start %q", err, want)
			}
		})
	}
}

// TestParseInferRequestAccepts covers the shapes the parity test's
// generated bodies do not: no inputs, empty rows, literals on both sides of
// the fast path's bounds, and one row at the cap.
func TestParseInferRequestAccepts(t *testing.T) {
	for _, body := range []string{
		`{"inputs":[]}`,
		` {"inputs" : [ [ ] , [1] ] } `,
		`{"inputs":[[0,-0,0.0,-0.0e5,0e400,1e-400]]}`,
		`{"inputs":[[9007199254740992,9007199254740993,-9007199254740993e-5]]}`,
		`{"inputs":[[1e22,1e23,1e-22,1e-23,123456789e-22,5e-324,2.4703282292062327e-324]]}`,
		`{"inputs":[[0.1000000000000000055511151231257827021181583404541015625]]}`,
		`{"inputs":[[1.7976931348623157e308,2.2250738585072011e-308,100000000000000000000000000000]]}`,
		`{"inputs":[[1E+2,1e-0,12.50E01]]}`,
		`{"inputs":[` + strings.Repeat(`[1],`, 63) + `[1]]}`,
	} {
		var want InferRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		got, err := ParseInferRequest([]byte(body), 64, 4)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if err := sameRows(got.Inputs, want.Inputs); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
	}
}

// FuzzParseInferRequest: no body panics the parser, every refusal names a
// byte offset inside the body, and every body it accepts encoding/json
// also accepts, with bit-identical rows and no more than maxInputs of them.
func FuzzParseInferRequest(f *testing.F) {
	for _, tc := range refusedBodies {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"inputs":[[1,2.5,-0,1e-7,-3.25E+2]]}`))
	f.Add([]byte("\t{ \"inputs\" :\n[ [0.1 , 9007199254740993],[ ] ] }\r\n"))
	f.Add([]byte(`{"inputs":[[123456789012345678901234567890,4.9e-324,1e23]]}`))
	const maxInputs = 4
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := ParseInferRequest(body, maxInputs, 8)
		if err != nil {
			var at int
			if _, serr := fmt.Sscanf(err.Error(), "byte %d: ", &at); serr != nil || at < 0 || at > len(body) {
				t.Fatalf("error %q names no offset in a %d-byte body", err, len(body))
			}
			return
		}
		if len(got.Inputs) > maxInputs {
			t.Fatalf("accepted %d inputs over a cap of %d", len(got.Inputs), maxInputs)
		}
		var want InferRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("accepted a body encoding/json refuses (%v): %q", err, body)
		}
		if err := sameRows(got.Inputs, want.Inputs); err != nil {
			t.Fatalf("%v: %q", err, body)
		}
	})
}

// benchInferBody is the repository benchmark's 8-sample infer body at
// seed 1: the first eight of its seeded smallcnn input patterns (standard
// normals drawn from seed+1), as json.Marshal writes them.
func benchInferBody(b *testing.B) []byte {
	rng := rand.New(rand.NewSource(1 + 1))
	rows := make([][]float64, 8)
	for i := range rows {
		rows[i] = make([]float64, smallcnnInSize)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	body, err := json.Marshal(map[string][][]float64{"inputs": rows})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkParseInferRequest times one 8-sample body through the parser,
// and through the encoding/json decode the service ran before it.
func BenchmarkParseInferRequest(b *testing.B) {
	body := benchInferBody(b)
	b.Run("parse", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := ParseInferRequest(body, 64, smallcnnInSize); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var req InferRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
