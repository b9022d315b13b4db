package serve

import (
	"math"
	"strconv"
)

// decode.go is the /predict request codec's fast path: a single-pass,
// reflection-free decoder for the plain predictRequest grammar
//
//	{ "x": [n, ...] | "indices": [i, ...] | "values": [n, ...] | "batch": [[n, ...], ...] }
//
// with each key at most once, in any order, arrays non-empty, and JSON
// whitespace anywhere between tokens. It never rejects a request: anything
// outside that grammar makes it decline, and the handler then runs
// encoding/json on the same bytes, so encoding/json decides every
// accept/reject and words every 400, and is the oracle FuzzDecodePredict
// compares this file against (fast path beside a reference, as with the
// SWAR kernels and their scalar forms).

// decoder is the scan state over one request body.
type decoder struct {
	b []byte
	i int
	// dim is the serving model's dimension, the expected row length.
	dim int
	// slab is the backing store rows are cut from, so that a batch costs a
	// couple of allocations rather than one per row.
	slab []float32
}

// decodePredict decodes body. ok=false means the body is not in the fast
// grammar (not that it is invalid) and req must be discarded.
func decodePredict(body []byte, dim int) (req predictRequest, ok bool) {
	d := decoder{b: body, dim: dim}
	if d.token() != '{' {
		return req, false
	}
	c := d.token()
	for c != '}' {
		if c != '"' {
			return req, false
		}
		// The key is compared raw: an escaped, differently-cased or unknown
		// key matches nothing here and is left to encoding/json's folding.
		start := d.i
		for d.i < len(d.b) && d.b[d.i] != '"' {
			d.i++
		}
		key := d.b[start:d.i]
		d.i++
		if d.token() != ':' {
			return req, false
		}
		// A key seen twice is declined: encoding/json lets the last one win.
		switch string(key) {
		case "x":
			if req.X != nil {
				return req, false
			}
			req.X, ok = d.floats(d.dim)
		case "indices":
			if req.Indices != nil {
				return req, false
			}
			req.Indices, ok = d.ints()
		case "values":
			if req.Values != nil {
				return req, false
			}
			want := len(req.Indices)
			if want == 0 {
				want = d.dim
			}
			req.Values, ok = d.floats(want)
		case "batch":
			if req.Batch != nil {
				return req, false
			}
			req.Batch, ok = d.batch()
		default:
			return req, false
		}
		if !ok {
			return req, false
		}
		if c = d.token(); c == ',' {
			if c = d.token(); c == '}' {
				return req, false
			}
		} else if c != '}' {
			return req, false
		}
	}
	d.space()
	return req, d.i == len(d.b)
}

func (d *decoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// token skips whitespace and consumes one byte; 0 at the end of the body.
func (d *decoder) token() byte {
	d.space()
	if d.i >= len(d.b) {
		return 0
	}
	c := d.b[d.i]
	d.i++
	return c
}

// elements bounds a pre-sized allocation by what the rest of the body can
// hold: an array element takes at least two bytes ("0,"), so a short body
// naming a large model cannot make the server allocate the model's size.
func (d *decoder) elements(want int) int {
	return min(want, (len(d.b)-d.i)/2+1)
}

// floats decodes a non-empty array of numbers onto the end of the slab and
// returns that stretch, capacity-clipped so that the next row cannot be
// reached through it. want is the expected length.
func (d *decoder) floats(want int) ([]float32, bool) {
	if d.token() != '[' {
		return nil, false
	}
	if cap(d.slab)-len(d.slab) < want {
		d.slab = make([]float32, 0, d.elements(want))
	}
	start := len(d.slab)
	for {
		d.space()
		f, ok := d.float()
		if !ok {
			return nil, false
		}
		d.slab = append(d.slab, f)
		switch d.token() {
		case ',':
		case ']':
			return d.slab[start:len(d.slab):len(d.slab)], true
		default:
			return nil, false
		}
	}
}

// batch decodes a non-empty array of rows. The first row is sized by the
// model; its length in elements and in bytes then sizes one slab for all
// the rows the rest of the body can hold.
func (d *decoder) batch() ([][]float32, bool) {
	if d.token() != '[' {
		return nil, false
	}
	d.space()
	at := d.i
	first, ok := d.floats(d.dim)
	if !ok {
		return nil, false
	}
	rowBytes := d.i - at
	rows := make([][]float32, 1, (len(d.b)-d.i)/rowBytes+2)
	rows[0] = first
	for {
		switch d.token() {
		case ',':
		case ']':
			return rows, true
		default:
			return nil, false
		}
		if cap(d.slab)-len(d.slab) < len(first) {
			d.slab = make([]float32, 0, len(first)*((len(d.b)-d.i)/rowBytes+1))
		}
		row, ok := d.floats(len(first))
		if !ok {
			return nil, false
		}
		rows = append(rows, row)
	}
}

// ints decodes a non-empty array of int32 indices: optional minus, digits,
// no leading zero, in range. A fraction or exponent ("1.0", "1e2") is left
// for encoding/json, which rejects it for an integer field.
func (d *decoder) ints() ([]int32, bool) {
	if d.token() != '[' {
		return nil, false
	}
	out := make([]int32, 0, d.elements(d.dim))
	for {
		d.space()
		b, i := d.b, d.i
		neg := i < len(b) && b[i] == '-'
		if neg {
			i++
		}
		start := i
		var n int64
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			n = n*10 + int64(b[i]-'0')
		}
		// Ten digits hold every int32 and cannot overflow the int64.
		if i == start || i-start > 10 || (b[start] == '0' && i-start > 1) {
			return nil, false
		}
		if neg {
			n = -n
		}
		if n < math.MinInt32 || n > math.MaxInt32 {
			return nil, false
		}
		d.i = i
		out = append(out, int32(n))
		switch d.token() {
		case ',':
		case ']':
			return out, true
		default:
			return nil, false
		}
	}
}

// pow10 are the powers of ten a float64 holds exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// minNormal32 is the smallest normal float32, 2^-126.
const minNormal32 = 0x1p-126

// float decodes the JSON number at d.i to the float32 that
// strconv.ParseFloat(token, 32) returns, bit for bit, which is what
// encoding/json stores in a float32 field.
//
// Up to 15 significant digits make an integer w < 2^53 and a power of ten
// up to 10^22 is a float64 too, so w*10^e or w/10^-e is one correctly
// rounded float64 operation on exact operands: f is the float64 nearest
// the decimal value v. Narrowing f can differ from rounding v directly only
// by double rounding, and that needs f to sit exactly on the midpoint m of
// two adjacent float32 values: m is a float64, rounding is monotonic, so v
// on one side of m puts f on the same side or on m itself. For f between
// 2^-126 and MaxFloat32 the midpoints are the float64 values whose 29
// mantissa bits below float32 precision read 1 followed by zeros. Those,
// subnormals, overflow, longer mantissas and larger exponents go to
// strconv, one token at a time.
func (d *decoder) float() (float32, bool) {
	b, i := d.b, d.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var w uint64 // the digits as an integer; wraps once digits > 19, unused past 15
	digits := 0  // significant digits: all of them but leading zeros
	exp := 0     // the value is w * 10^exp
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' <= 8:
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			w = w*10 + uint64(b[i]-'0')
			digits++
		}
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			w = w*10 + uint64(b[i]-'0')
			if w != 0 || digits != 0 {
				digits++
			}
		}
		if i == frac {
			return 0, false
		}
		exp = frac - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		es, e := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // saturate: anything this large is strconv's
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == es {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	d.i = i

	if digits <= 15 && exp >= -22 && exp <= 22 {
		f := float64(w)
		if exp < 0 {
			f /= pow10[-exp]
		} else {
			f *= pow10[exp]
		}
		inRange := f == 0 || (f >= minNormal32 && f <= math.MaxFloat32)
		if inRange && math.Float64bits(f)&(1<<29-1) != 1<<28 {
			if neg {
				f = -f
			}
			return float32(f), true
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 32)
	if err != nil {
		return 0, false // float32 overflow: encoding/json words the error
	}
	return float32(f), true
}
