package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// corpusBody builds one body of a benchmark request class the way the
// benchmark's corpus does: json.Marshal of uniform float32s in [-1, 1).
func corpusBody(tb testing.TB, class string, dim int, seed int64) []byte {
	tb.Helper()
	g := rand.New(rand.NewSource(seed))
	row := func(n int) []float32 {
		x := make([]float32, n)
		for j := range x {
			x[j] = g.Float32()*2 - 1
		}
		return x
	}
	var body any
	switch class {
	case "dense":
		body = map[string]any{"x": row(dim)}
	case "sparse":
		idx := make([]int32, 16)
		for k := range idx {
			idx[k] = int32(g.Intn(dim))
		}
		body = map[string]any{"indices": idx, "values": row(len(idx))}
	case "batch":
		rows := make([][]float32, 16)
		for k := range rows {
			rows[k] = row(dim)
		}
		body = map[string]any{"batch": rows}
	}
	b, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func sameFloats(a, b []float32) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstJSON is the differential property: the fast decoder either
// declines body or returns exactly what encoding/json decodes, float bits
// and nil-ness included, and never accepts a body encoding/json rejects.
// It reports whether the fast decoder accepted.
func checkAgainstJSON(t *testing.T, body []byte, dim int) bool {
	t.Helper()
	got, ok := decodePredict(body, dim)
	if !ok {
		return false
	}
	var want predictRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
		t.Fatalf("fast decoder accepted %q, encoding/json rejects it: %v", body, err)
	}
	if !sameFloats(got.X, want.X) || !sameFloats(got.Values, want.Values) {
		t.Fatalf("body %q: x/values differ: fast %+v, encoding/json %+v", body, got, want)
	}
	if (got.Indices == nil) != (want.Indices == nil) || !slices.Equal(got.Indices, want.Indices) {
		t.Fatalf("body %q: indices differ: fast %v, encoding/json %v", body, got.Indices, want.Indices)
	}
	if (got.Batch == nil) != (want.Batch == nil) || len(got.Batch) != len(want.Batch) {
		t.Fatalf("body %q: batch differs: fast %d rows, encoding/json %d", body, len(got.Batch), len(want.Batch))
	}
	for i := range got.Batch {
		if !sameFloats(got.Batch[i], want.Batch[i]) {
			t.Fatalf("body %q: batch row %d differs: fast %v, encoding/json %v", body, i, got.Batch[i], want.Batch[i])
		}
	}
	return true
}

// decodeCases are the grammar's corners: accept says which side of the
// decline line each is on. They seed the fuzzer and pin the line itself.
var decodeCases = []struct {
	body   string
	accept bool
}{
	{`{"x":[1,1,1,1]}`, true},
	{`{"indices":[0,2],"values":[1,3]}`, true},
	{`{"values":[1,3],"indices":[0,2]}`, true},
	{`{"batch":[[1,1,1,1],[0,0,0,1]]}`, true},
	{`{"batch":[[1],[2,3,4,5,6,7,8,9],[10]]}`, true},
	{" \t\r\n{ \"x\" : [ 1 , -2.5e-3 ,\n3 ] } \n", true},
	{`{"x":[-0,0.0,-0.0e5,1E+2,1e-2,0.000123]}`, true},
	{`{"x":[0.1234567890123456789,12345678901234567,1.00000005960464477539,16777217]}`, true},
	{`{"x":[1e-45,1.1754942e-38,3.4028235e38,1e-400]}`, true},
	{`{"indices":[-0,2147483647,-2147483648],"values":[1,2,3]}`, true},
	{`{}`, true},
	{`{"x":[1]}x`, false},
	{`{"x":[1]}{"x":[2]}`, false},
	{`{"x":[]}`, false},
	{`{"x":null}`, false},
	{`{"batch":[]}`, false},
	{`{"batch":[[]]}`, false},
	{`{"batch":[[1],null]}`, false},
	{`{"X":[1]}`, false},
	{`{"\u0078":[1]}`, false},
	{`{"x\"":[1]}`, false},
	{`{"y":[1]}`, false},
	{`{"x":[1],"extra":true}`, false},
	{`{"x":[1],"x":[2]}`, false},
	{`{"x":[1],}`, false},
	{`{"x":[1,]}`, false},
	{`{"x":[1 2]}`, false},
	{`{"x":["1"]}`, false},
	{`{"x":[true]}`, false},
	{`{"x":[[1]]}`, false},
	{`{"x":[01]}`, false},
	{`{"x":[1.]}`, false},
	{`{"x":[.5]}`, false},
	{`{"x":[+1]}`, false},
	{`{"x":[1e]}`, false},
	{`{"x":[-]}`, false},
	{`{"x":[1e40]}`, false},
	{`{"x":[3.5e38]}`, false},
	{`{"x":[NaN]}`, false},
	{`{"indices":[1.0],"values":[1]}`, false},
	{`{"indices":[1e2],"values":[1]}`, false},
	{`{"indices":[2147483648],"values":[1]}`, false},
	{`{"indices":[-2147483649],"values":[1]}`, false},
	{`{"indices":[00],"values":[1]}`, false},
	{`{"indices":[99999999999999999999],"values":[1]}`, false},
	{`{"x":[1]`, false},
	{`{"x":[1`, false},
	{`{"x`, false},
	{`{"x":`, false},
	{`[1]`, false},
	{`null`, false},
	{``, false},
	{"\xef\xbb\xbf{\"x\":[1]}", false},
	{"{\"x\":[1\x00]}", false},
}

func TestDecodePredictGrammar(t *testing.T) {
	for _, c := range decodeCases {
		for _, dim := range []int{1, 4, 512} {
			if got := checkAgainstJSON(t, []byte(c.body), dim); got != c.accept {
				t.Errorf("dim %d: fast decoder accepted %q = %v, want %v", dim, c.body, got, c.accept)
			}
		}
	}
	// The benchmark's three request classes are the traffic the fast path
	// exists for: none may fall back.
	for _, class := range []string{"dense", "sparse", "batch"} {
		if !checkAgainstJSON(t, corpusBody(t, class, 512, 1), 512) {
			t.Errorf("fast decoder declined a %s corpus body", class)
		}
	}
}

// TestDecodeBatchSharesSlab pins the allocation shape the pre-sizing is
// for: a well-formed batch costs three allocations (the first row, one slab
// for the others, the row headers) however many rows it has, and no row can
// be appended into the next.
func TestDecodeBatchSharesSlab(t *testing.T) {
	body := corpusBody(t, "batch", 64, 2)
	req, ok := decodePredict(body, 64)
	if !ok || len(req.Batch) != 16 {
		t.Fatalf("ok %v, %d rows", ok, len(req.Batch))
	}
	for i, row := range req.Batch {
		if len(row) != cap(row) {
			t.Fatalf("row %d: len %d, cap %d: an append would reach the next row", i, len(row), cap(row))
		}
	}
	if n := testing.AllocsPerRun(10, func() { decodePredict(body, 64) }); n != 3 {
		t.Fatalf("a 16-row batch took %v allocations, want 3", n)
	}
}

func FuzzDecodePredict(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstJSON(t, body, 1)
		checkAgainstJSON(t, body, 512)
	})
}

// fastFloat runs the number routine on one whole token.
func fastFloat(tok []byte) (float32, bool) {
	d := decoder{b: tok}
	f, ok := d.float()
	return f, ok && d.i == len(tok)
}

// checkFloat compares the number routine with strconv.ParseFloat(tok, 32):
// same bits, and a decline exactly where strconv reports a range error.
func checkFloat(t *testing.T, tok []byte) {
	want, err := strconv.ParseFloat(string(tok), 32)
	got, ok := fastFloat(tok)
	if ok != (err == nil) {
		t.Fatalf("%s: fast ok=%v, strconv err=%v", tok, ok, err)
	}
	if ok && math.Float32bits(got) != math.Float32bits(float32(want)) {
		t.Fatalf("%s: fast %#08x (%g), strconv %#08x (%g)", tok,
			math.Float32bits(got), got, math.Float32bits(float32(want)), float32(want))
	}
}

func TestParseFloat32MatchesStrconv(t *testing.T) {
	for _, tok := range []string{
		"0", "-0", "0.0", "-0.000", "0e5", "-0e-5", "0e999", "0.0e-999",
		"1", "-1", "1E+2", "1e+2", "1e-2", "1.5", "0.1", "0.000123", "123.456e3",
		// Exact float32 rounding midpoints, and their neighbours.
		"16777217", "16777217.0", "1.6777217e7", "16777216.99999", "16777217.00001", "33554434", "33554438",
		"1.00000005960464477539", "1.000000059604644775390625", "1.00000005960464", "1.00000005960465",
		"1.0000001788139343", "0.50000002980232238769531250", "9007199254740993",
		// 15, 16 and 17 significant digits on either side of the fast path.
		"123456789012345", "1234567890123456", "12345678901234567", "0.123456789012345", "0.1234567890123456",
		"0.000000000000000000000123456789012345", "123456789012345e22", "123456789012345e23", "123456789012345e-22", "123456789012345e-23",
		// Exponents around the exact powers of ten.
		"1e22", "1e23", "1e-22", "1e-23", "9e22", "9e-23", "1.5e22", "1.5e-22",
		// The float32 range's edges.
		"3.4028235e38", "3.4028234663852886e38", "3.4028235677973366e38", "3.4028235677973367e38", "3.4028236e38", "3.5e38", "1e39", "1e40", "1e400", "-3.5e38",
		"1.17549435e-38", "1.1754943e-38", "1.1754942e-38", "1e-38", "1.4e-45", "1e-45", "7.006492321624085e-46", "7.006492321624086e-46", "7e-46", "1e-46", "1e-400",
		"1e99999", "1e-99999", "1e100000000000000000000", "1e-100000000000000000000",
	} {
		checkFloat(t, []byte(tok))
	}

	// Sampled bit patterns, each in its shortest round-trip form and one
	// fixed-precision 'f' form, and the float64 midpoint above each in
	// its exact form (a tie: round to even) and cut to 15 digits (just off
	// the tie, inside the fast path's digit budget).
	samples := 10_000_000
	if testing.Short() {
		samples = 200_000
	}
	const shards = 4 // parallel subtests: the race build runs this 8x slower
	for shard := 0; shard < shards; shard++ {
		t.Run(fmt.Sprint("sampled/", shard), func(t *testing.T) {
			t.Parallel()
			g := rand.New(rand.NewSource(14 + int64(shard)))
			buf := make([]byte, 0, 512)
			for n := 0; n < samples/shards; n++ {
				bits := g.Uint32()
				f := math.Float32frombits(bits)
				if f != f || math.IsInf(float64(f), 0) {
					continue
				}
				buf = strconv.AppendFloat(buf[:0], float64(f), 'g', -1, 32)
				checkFloat(t, buf)
				buf = strconv.AppendFloat(buf[:0], float64(f), 'f', n%24, 32)
				checkFloat(t, buf)
				if n%8 == 0 {
					mid := (float64(f) + float64(math.Float32frombits(bits+1))) / 2
					if math.IsInf(mid, 0) || mid != mid {
						continue
					}
					buf = strconv.AppendFloat(buf[:0], mid, 'g', -1, 64)
					checkFloat(t, buf)
					buf = strconv.AppendFloat(buf[:0], mid, 'e', 14, 64)
					checkFloat(t, buf)
				}
			}
		})
	}
}

// TestDecodeFallbackCounted drives both decode paths through the handler:
// a plain body does not touch the fallback counter, a body outside the fast
// grammar is answered by encoding/json exactly as before and counted once.
func TestDecodeFallbackCounted(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	if _, err := s.Promote(newLin(2, 3), 1, 1); err != nil {
		t.Fatal(err)
	}
	if code, pr := post(t, hs.URL, `{"x":[1,1]}`); code != 200 || *pr.Margin != 6 {
		t.Fatalf("plain body: code %d, resp %+v", code, pr)
	}
	if n := s.Metrics().Snapshot().DecodeFallbacks; n != 0 {
		t.Fatalf("a plain body took the fallback: %d", n)
	}
	for i, c := range []struct {
		body, wantErr string
		code          int
	}{
		{`{"X":[1,1]}`, "", 200},             // case-folded key
		{`{"x":[1,1],"note":"hi"}`, "", 200}, // unknown key
		{`{"x":[9,9],"x":[1,1]}`, "", 200},   // duplicate key: last wins
		{`{"x":[1,1]} trailing`, "", 200},    // Decoder.Decode stops at the first value
		{`{"x":null,"indices":[0],"values":[2]}`, "", 200},
		{`{"x":[1,1`, "serve: bad request body: unexpected EOF", 400},
		{``, "serve: bad request body: EOF", 400},
		{`{"x":[1e40,1]}`, "serve: bad request body: json: cannot unmarshal number 1e40 into Go struct field predictRequest.x of type float32", 400},
		{`{"indices":[1.0],"values":[1]}`, "serve: bad request body: json: cannot unmarshal number 1.0 into Go struct field predictRequest.indices of type int32", 400},
		{`{"x":[]}`, "dim 0 vs 2", 400},
	} {
		code, pr := post(t, hs.URL, c.body)
		if code != c.code || pr.Error != c.wantErr {
			t.Errorf("%q: code %d error %q, want %d %q", c.body, code, pr.Error, c.code, c.wantErr)
		}
		if code == 200 && *pr.Margin != 6 {
			t.Errorf("%q: margin %v, want 6", c.body, *pr.Margin)
		}
		if n := s.Metrics().Snapshot().DecodeFallbacks; n != uint64(i+1) {
			t.Fatalf("%q: fallback counter %d, want %d", c.body, n, i+1)
		}
	}
}

// TestBodySizeLimit: a body one byte over 16 MiB is answered 413 by name
// (not 400 "unexpected EOF" from a silent truncation) and counted as a bad
// request; a body exactly at the limit is decoded and served.
func TestBodySizeLimit(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	if _, err := s.Promote(newLin(2, 3), 1, 1); err != nil {
		t.Fatal(err)
	}
	padded := func(n int) string {
		const head, tail = `{"x":[1,1]`, `}`
		return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
	}
	code, pr := post(t, hs.URL, padded(maxBodyBytes))
	if code != 200 || pr.Margin == nil || *pr.Margin != 6 {
		t.Fatalf("body at the limit: code %d, resp %+v", code, pr)
	}
	code, pr = post(t, hs.URL, padded(maxBodyBytes+1))
	if code != http.StatusRequestEntityTooLarge || pr.Error != "serve: request body over 16 MiB" {
		t.Fatalf("body over the limit: code %d, resp %+v", code, pr)
	}
	if st := s.Metrics().Snapshot(); st.BadRequests != 1 || st.Requests != 1 {
		t.Fatalf("counters after one served and one oversized request: %+v", st)
	}
	// The grown buffers were dropped, not pooled: the next small request
	// does not find a 16 MiB buffer.
	for i := 0; i < 64; i++ {
		buf := bodyPool.Get().(*bytes.Buffer)
		if buf.Cap() > maxPooledBody {
			t.Fatalf("pool holds a %d-byte buffer", buf.Cap())
		}
	}
}

// BenchmarkHandlerPredict is the request path without a socket: one
// corpus body of each benchmark class through Handler().ServeHTTP.
func BenchmarkHandlerPredict(b *testing.B) {
	for _, c := range []struct {
		name, class string
	}{{"dense512", "dense"}, {"sparse16", "sparse"}, {"batch16x512", "batch"}} {
		b.Run(c.name, func(b *testing.B) {
			s, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Promote(newLin(512, 1), 1, 1); err != nil {
				b.Fatal(err)
			}
			h := s.Handler()
			body := corpusBody(b, c.class, 512, 3)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
				if rw.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rw.Code, rw.Body)
				}
			}
		})
	}
}
