package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
)

const sampleLibSVM = `+1 1:0.5 3:-0.25 10:1 # a comment
-1 2:0.75

+1 1:-1 2:0.125
`

func TestReadLibSVM(t *testing.T) {
	d, err := ReadLibSVM(strings.NewReader(sampleLibSVM), LibSVMConfig{
		P: kernels.I8, IdxBits: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("examples = %d, want 3", d.Len())
	}
	if d.N != 10 {
		t.Errorf("inferred dimension = %d, want 10", d.N)
	}
	if d.Y[0] != 1 || d.Y[1] != -1 || d.Y[2] != 1 {
		t.Errorf("labels wrong: %v", d.Y)
	}
	// Indices are converted to 0-based.
	if d.Idx[0][0] != 0 || d.Idx[0][1] != 2 || d.Idx[0][2] != 9 {
		t.Errorf("indices wrong: %v", d.Idx[0])
	}
	// Values quantized at I8 but exactly representable here.
	if got := d.Val[0].At(1); got != -0.25 {
		t.Errorf("quantized value = %v, want -0.25", got)
	}
	if d.IdxBits != 16 {
		t.Error("IdxBits not preserved")
	}
}

// TestReadLibSVMNumFeatures: the model dimension is the largest index of
// any line, whichever block holds it and however many workers parse.
func TestReadLibSVMNumFeatures(t *testing.T) {
	in := "+1 1:1\n-1 100:1\n+1 3:1\n"
	for _, size := range []int{1, 16, 4 << 20} {
		for _, workers := range []int{1, 3} {
			d, err := readLibSVM(strings.NewReader(in), LibSVMConfig{P: kernels.F32}, size, workers)
			if err != nil {
				t.Fatal(err)
			}
			if d.N != 100 {
				t.Errorf("%d-byte blocks, %d workers: dimension = %d, want 100", size, workers, d.N)
			}
		}
	}
}

func TestReadLibSVMErrors(t *testing.T) {
	bad := []string{
		"abc 1:1\n",        // bad label
		"+1 0:1\n",         // index < 1
		"+1 x:1\n",         // bad index
		"+1 1:z\n",         // bad value
		"+1 nocolon\n",     // missing colon
		"+1 3:1 2:1\n",     // decreasing indices
		"",                 // empty input
		"# only comment\n", // no examples
	}
	for _, in := range bad {
		if _, err := ReadLibSVM(strings.NewReader(in), LibSVMConfig{P: kernels.F32}); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
	if _, err := ReadLibSVM(strings.NewReader("+1 1:1\n"), LibSVMConfig{P: kernels.F32, IdxBits: 9}); err == nil {
		t.Error("bad index precision should fail")
	}
}

func TestReadLibSVMTrailingBlankLines(t *testing.T) {
	// Trailing blank lines, comment-only lines and a missing final
	// newline are all tolerated, and the line numbering in errors stays
	// anchored to the physical file.
	in := "+1 1:0.5\n-1 2:0.25\n\n\n# trailing comment\n\n"
	d, err := ReadLibSVM(strings.NewReader(in), LibSVMConfig{P: kernels.F32})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("examples = %d, want 2", d.Len())
	}
	d, err = ReadLibSVM(strings.NewReader("+1 1:0.5"), LibSVMConfig{P: kernels.F32})
	if err != nil || d.Len() != 1 {
		t.Fatalf("no final newline: %v, %v", d, err)
	}
}

func TestReadLibSVMOutOfOrderIndices(t *testing.T) {
	for _, in := range []string{
		"+1 3:1 2:1\n", // decreasing
		"+1 2:1 2:5\n", // duplicate
	} {
		_, err := ReadLibSVM(strings.NewReader(in), LibSVMConfig{P: kernels.F32})
		if err == nil || !strings.Contains(err.Error(), "strictly increasing") {
			t.Errorf("input %q: %v", in, err)
		}
	}
}

func TestReadLibSVMErrorsNamePath(t *testing.T) {
	cfg := LibSVMConfig{P: kernels.F32, Path: "data/a9a.svm"}
	_, err := ReadLibSVM(strings.NewReader("+1 1:1\nbogus 1:1\n"), cfg)
	if err == nil || !strings.Contains(err.Error(), "data/a9a.svm:2:") {
		t.Fatalf("error should carry path and line: %v", err)
	}
	_, err = ReadLibSVM(strings.NewReader(""), cfg)
	if err == nil || !strings.Contains(err.Error(), "data/a9a.svm") {
		t.Fatalf("empty-input error should name the file: %v", err)
	}
	// Without a path the historical "line N" form is kept.
	_, err = ReadLibSVM(strings.NewReader("bogus 1:1\n"), LibSVMConfig{P: kernels.F32})
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("pathless error: %v", err)
	}
}

func TestLibSVMRoundTrip(t *testing.T) {
	orig, err := GenSparse(SparseConfig{
		N: 200, M: 25, Density: 0.05, P: kernels.F32, IdxBits: 32,
		Rounding: fixed.Biased, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Writing requires sorted indices per line; sort a copy.
	for i := range orig.Idx {
		sortPair(orig.Idx[i], orig.RawVal[i])
		v := kernels.NewVec(kernels.F32, len(orig.RawVal[i]))
		copy(v.F32, orig.RawVal[i])
		orig.Val[i] = v
	}
	var buf bytes.Buffer
	if err := WriteLibSVM(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLibSVM(&buf, LibSVMConfig{P: kernels.F32})
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() || back.N != orig.N {
		t.Fatalf("shape changed: %dx%d -> %dx%d", orig.Len(), orig.N, back.Len(), back.N)
	}
	for i := 0; i < orig.Len(); i++ {
		if back.Y[i] != orig.Y[i] {
			t.Fatalf("label %d changed", i)
		}
		for k := range orig.Idx[i] {
			if back.Idx[i][k] != orig.Idx[i][k] {
				t.Fatalf("index (%d,%d) changed", i, k)
			}
			if back.RawVal[i][k] != orig.RawVal[i][k] {
				t.Fatalf("value (%d,%d) changed: %v -> %v", i, k, orig.RawVal[i][k], back.RawVal[i][k])
			}
		}
	}
	if err := WriteLibSVM(&buf, &SparseSet{}); err == nil {
		t.Error("empty write should fail")
	}
}

// sortPair sorts idx ascending, permuting vals identically.
func sortPair(idx []int32, vals []float32) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
}

// fmtLibSVM is the fmt formulation of the LIBSVM writer, the oracle
// WriteLibSVM must match byte for byte.
func fmtLibSVM(d *SparseSet) string {
	var b strings.Builder
	for i := range d.Idx {
		fmt.Fprintf(&b, "%+g", d.Y[i])
		for k, j := range d.Idx[i] {
			fmt.Fprintf(&b, " %d:%g", j+1, d.RawVal[i][k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestWriteLibSVMMatchesFmt(t *testing.T) {
	vals := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 2, -3, 100, 16777216, 1e20,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, 1.1754944e-38,
		1e-7, -1e-7, 0.1, 3.4e38, -3.4e38, math.MaxFloat32,
		float32(math.NaN()), math.Float32frombits(0xFFC00001),
		float32(math.Inf(1)), float32(math.Inf(-1)),
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 2000 {
		vals = append(vals, math.Float32frombits(rng.Uint32()), rng.Float32()*2-1)
	}
	// Every value appears once as a label and once as a feature value;
	// the indices cover int32's edges, including the j+1 wrap at the top.
	idx := []int32{0, 1, 9, 99999, math.MaxInt32 - 1, math.MaxInt32}
	d := &SparseSet{}
	for i, v := range vals {
		j := idx[i%len(idx)]
		d.Y = append(d.Y, v)
		d.Idx = append(d.Idx, []int32{j, j})
		d.RawVal = append(d.RawVal, []float32{v, vals[(i+1)%len(vals)]})
	}
	var buf bytes.Buffer
	if err := WriteLibSVM(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, want := strings.Split(buf.String(), "\n"), strings.Split(fmtLibSVM(d), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines, fmt writes %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: %q, fmt writes %q", i+1, got[i], want[i])
		}
	}
	// Row blocks of one line up to several hundred, on several workers,
	// write the same bytes.
	for _, workers := range []int{2, 3} {
		for _, size := range []int{1, 4096} {
			var blocks bytes.Buffer
			if err := writeLibSVM(&blocks, d, size, workers); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blocks.Bytes(), buf.Bytes()) {
				t.Errorf("%d-byte blocks on %d workers write other bytes", size, workers)
			}
		}
	}
}

// failingWriter accepts n bytes, then fails.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteLibSVMWriterError: the first failed write ends the pipeline and
// is returned, whatever the block size and worker count.
func TestWriteLibSVMWriterError(t *testing.T) {
	d, err := GenSparse(SparseConfig{N: 200, M: 300, Density: 0.05, P: kernels.F32, IdxBits: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		for _, size := range []int{1, 64, libsvmBlockSize} {
			if err := writeLibSVM(&failingWriter{n: 1000}, d, size, workers); err == nil || err.Error() != "disk full" {
				t.Errorf("%d-byte blocks, %d workers: err = %v, want disk full", size, workers, err)
			}
		}
	}
}

// FuzzReadLibSVM holds the reader to one property: any input either fails
// to parse, or parses to a set that WriteLibSVM writes and the reader reads
// back to the same dimension, indices, raw and stored values, and labels,
// bit for bit. The committed corpus (testdata/fuzz) is replayed by go test.
func FuzzReadLibSVM(f *testing.F) {
	f.Add(sampleLibSVM)
	f.Fuzz(func(t *testing.T, in string) {
		cfg := LibSVMConfig{P: kernels.I8, IdxBits: 16, Rounding: fixed.Unbiased, Seed: 3}
		d, err := ReadLibSVM(strings.NewReader(in), cfg)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteLibSVM(&buf, d); err != nil {
			t.Fatal(err)
		}
		written := buf.String()
		back, err := ReadLibSVM(&buf, cfg)
		if err != nil {
			t.Fatalf("re-reading %q: %v", written, err)
		}
		if back.N != d.N || back.Len() != d.Len() {
			t.Fatalf("shape %dx%d, re-read %dx%d", d.Len(), d.N, back.Len(), back.N)
		}
		for i := range d.Idx {
			if math.Float32bits(back.Y[i]) != math.Float32bits(d.Y[i]) || len(back.Idx[i]) != len(d.Idx[i]) {
				t.Fatalf("example %d: label or length changed through %q", i, written)
			}
			for k, j := range d.Idx[i] {
				if back.Idx[i][k] != j ||
					math.Float32bits(back.RawVal[i][k]) != math.Float32bits(d.RawVal[i][k]) ||
					back.Val[i].Raw(k) != d.Val[i].Raw(k) {
					t.Fatalf("example %d, feature %d changed through %q", i, k, written)
				}
			}
		}
	})
}

// sameRead reports how two ReadLibSVM results differ, or "" when they are
// the same set bit for bit, or the same error text.
func sameRead(a *SparseSet, aerr error, b *SparseSet, berr error) string {
	if aerr != nil || berr != nil {
		if aerr == nil || berr == nil || aerr.Error() != berr.Error() {
			return fmt.Sprintf("error %v, reference error %v", aerr, berr)
		}
		return ""
	}
	if a.N != b.N || a.IdxBits != b.IdxBits || a.Len() != b.Len() {
		return fmt.Sprintf("shape %dx%d/i%d, reference %dx%d/i%d", a.Len(), a.N, a.IdxBits, b.Len(), b.N, b.IdxBits)
	}
	for i := range a.Idx {
		if math.Float32bits(a.Y[i]) != math.Float32bits(b.Y[i]) || len(a.Idx[i]) != len(b.Idx[i]) ||
			a.Val[i].P != b.Val[i].P || a.Val[i].Len() != b.Val[i].Len() {
			return fmt.Sprintf("example %d: label, length or precision differs", i)
		}
		if cap(a.Idx[i]) != len(a.Idx[i]) || cap(a.RawVal[i]) != len(a.RawVal[i]) {
			return fmt.Sprintf("example %d: arena view not capacity-capped", i)
		}
		for k, j := range b.Idx[i] {
			if a.Idx[i][k] != j || math.Float32bits(a.RawVal[i][k]) != math.Float32bits(b.RawVal[i][k]) ||
				storedBits(a.Val[i], k) != storedBits(b.Val[i], k) {
				return fmt.Sprintf("example %d, feature %d differs", i, k)
			}
		}
	}
	return ""
}

// storedBits is a stored value's bits: the float's at F32, else the
// fixed-point integer's.
func storedBits(v kernels.Vec, k int) uint32 {
	if v.P == kernels.F32 {
		return math.Float32bits(v.F32[k])
	}
	return uint32(v.Raw(k))
}

// FuzzReadLibSVMMatchesReference runs the block reader beside the
// line-at-a-time reader it replaced (libsvm_ref_test.go), on tiny blocks and
// three workers so that lines, carries and merges cross block edges: the
// sets must match bit for bit, and the errors text for text.
func FuzzReadLibSVMMatchesReference(f *testing.F) {
	for _, seed := range []string{
		sampleLibSVM,
		"+1 1:0.5 3:2\r\n-1 2:1 # note: 5:5\r\n#\r\n+1 4:0.25\r\n", // CRLF, comments
		"\n  \t\n+1 1:1\n\n \r\n-1 2:2\n\n",                        // blank and whitespace-only lines
		"+1\v1:1\f2:2\n-1 1:1\x002:2\n",                            // \v, \f, NUL
		"+1\u00851:1\u00a02:2\n-1 3:1\u2003 4:4\n+1 5:\xff\n",      // U+0085, U+00A0, U+2003, bad UTF-8
		"+1 1:inf 2:NaN 3:-Inf 4:0x1p-2\n",                         // specials and hex
		"+1 1:1_0\n",                                               // underscore
		"NaN 1:1\n+Inf 2:1\n-0 3:1\n",                              // special labels
		"+1 1:12345678901234567890 2:0.100000000000000000001\n",    // 20+ digit mantissas
		"+1 1:16777217 2:16777219 3:33554434 4:9007199254740993\n", // float32 midpoints
		"-0 1:-0 2:0 3:-0.0e5\n",                                   // signed zeros
		"+1 1:1\n-1 2:0.5",                                         // no final '\n'
		"+1 1:1e39\n",                                              // value overflow
		"+1 1:1e-50 2:1.4e-45 3:1e-22 4:1e23\n",                    // underflow, subnormal, exponent edges
		"+1 2147483647:1\n+1 2147483648:1\n",                       // index range
		"+1 007:1 +8:2 0009:3\n-1 -1:1\n",                          // index signs and zeros
		"+1 1:1 1:2\n",                                             // duplicate index
		"+1 :1\n",                                                  // empty index
		"+1 1:1:1\n",                                               // second colon
		"1\n-1\n+1 2:2\n",                                          // label-only lines
		"+1 1:1 # \u00fc 2:2\n-1 1:1\u00a0#\u00a0 2:2\n",           // Unicode around '#'
		"+1 1:.5 2:5. 3:+.5e-1 4:1E+01\n",                          // forms the fast path leaves to strconv
		"+1 3:1 2:1\nabc 1:1\n",                                    // earliest error wins
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, cfg := range []LibSVMConfig{
			{P: kernels.I8, IdxBits: 16, Rounding: fixed.Unbiased, Seed: 3},
			{P: kernels.F32, Path: "data/x.svm"},
		} {
			want, werr := refReadLibSVM(strings.NewReader(in), cfg)
			for _, size := range []int{1, 16} {
				got, err := readLibSVM(strings.NewReader(in), cfg, size, 3)
				if diff := sameRead(got, err, want, werr); diff != "" {
					t.Fatalf("%q at %d-byte blocks: %s", in, size, diff)
				}
			}
		}
	})
}

// FuzzParseFloat32MatchesStrconv holds the reader's float parser, fast path
// and fallback, to strconv.ParseFloat(s, 32): the same bits, and an error
// exactly when strconv reports one.
func FuzzParseFloat32MatchesStrconv(f *testing.F) {
	for _, seed := range []string{
		"0", "-0", "+1", "-1", "0.1", "-0.25", "1e5", "1E-5", "3.4028235e38", "1.1754944e-38",
		"16777216", "16777217", "16777219", "33554434", "9007199254740992", "9007199254740993",
		"12345678901234567890", "0.100000000000000000001", "1e22", "1e23", "1e-22", "1e-23",
		"inf", "-Inf", "NaN", "0x1p-2", "1_0", ".5", "5.", "+.5", "1e", "1e+", "--1", "", "-",
		"1e999999999999", "0e-999", "1.4e-45", "7.006492e-46", "0.000000059604645",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, werr := strconv.ParseFloat(s, 32)
		if fast, n, ok := fastFloat32([]byte(s)); ok && n == len(s) && (werr != nil || math.Float32bits(fast) != math.Float32bits(float32(want))) {
			t.Fatalf("fast path %q = %v (%#x), strconv %v, %v", s, fast, math.Float32bits(fast), float32(want), werr)
		}
		got, ok := parseFloat32([]byte(s))
		if ok != (werr == nil) || math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("%q = %v, %v; strconv %v, %v", s, got, ok, float32(want), werr)
		}
	})
}

// TestParseFloat32Shortest: every float32 the writer prints, in its
// shortest form, takes the fast path and reads back to the same bits.
func TestParseFloat32Shortest(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	fast := 0
	for range 100000 {
		x := rng.Float32()*2 - 1
		if rng.IntN(4) == 0 {
			x = math.Float32frombits(rng.Uint32())
		}
		s := strconv.AppendFloat(nil, float64(x), 'g', -1, 32)
		got, ok := parseFloat32(s)
		if !ok || math.Float32bits(got) != math.Float32bits(x) {
			if x == x {
				t.Fatalf("%s = %v, %v; want %v", s, got, ok, x)
			}
		}
		if _, n, ok := fastFloat32(s); ok && n == len(s) {
			fast++
		}
	}
	if fast < 75000 {
		t.Errorf("%d of 100000 shortest forms took the fast path, want most", fast)
	}
}

// TestReadLibSVMLineLimit pins the 16 MiB line limit to the reference
// reader's bufio.Scanner boundary: a line of maxLineBytes-1 bytes (before
// its '\n') parses and one of maxLineBytes fails with bufio.ErrTooLong, with
// or without a final '\n', and an earlier bad line still wins.
func TestReadLibSVMLineLimit(t *testing.T) {
	long := func(n int) string { // one valid example, padded to n bytes
		return "+1 1:1 2:0.5\r" + strings.Repeat(" ", n-len("+1 1:1 2:0.5\r")-1) + "\r"
	}
	cfg := LibSVMConfig{P: kernels.I8, IdxBits: 16, Rounding: fixed.Unbiased, Seed: 1}
	for _, c := range []struct {
		name, in string
		tooLong  bool
	}{
		{"limit-1", "-1 3:1\n" + long(maxLineBytes-1) + "\n-1 4:2\n", false},
		{"limit-1, last", "-1 3:1\n" + long(maxLineBytes-1), false},
		{"limit", "-1 3:1\n" + long(maxLineBytes) + "\n-1 4:2\n", true},
		{"limit, last", "-1 3:1\n" + long(maxLineBytes), true},
		{"limit+1", long(maxLineBytes+1) + "\nbad\n", true},
		{"bad before", "bad\n" + long(maxLineBytes) + "\n", false},
	} {
		want, werr := refReadLibSVM(strings.NewReader(c.in), cfg)
		if c.tooLong != errors.Is(werr, bufio.ErrTooLong) {
			t.Fatalf("%s: reference reader: %v", c.name, werr)
		}
		for _, size := range []int{4096, libsvmBlockSize} {
			got, err := readLibSVM(strings.NewReader(c.in), cfg, size, 2)
			if diff := sameRead(got, err, want, werr); diff != "" {
				t.Errorf("%s at %d-byte blocks: %s", c.name, size, diff)
			}
			if c.tooLong && !errors.Is(err, bufio.ErrTooLong) {
				t.Errorf("%s at %d-byte blocks: %v does not wrap bufio.ErrTooLong", c.name, size, err)
			}
		}
	}
}

// failingReader yields data and then fails with err.
type failingReader struct {
	data string
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadLibSVMReaderErrors: on a stream that fails, that reports EOF with
// its last bytes, that trickles a byte at a time or that stops making
// progress, the block reader parses what arrived and fails (or not)
// exactly as the reference reader does.
func TestReadLibSVMReaderErrors(t *testing.T) {
	boom := errors.New("boom")
	const text = "+1 1:0.5 3:2\n-1 2:1\n+1 4:0.25"
	readers := map[string]func() io.Reader{
		"fails after lines":        func() io.Reader { return &failingReader{text[:20], boom} },
		"fails mid-line":           func() io.Reader { return &failingReader{text[:17], boom} },
		"fails after a bad line":   func() io.Reader { return &failingReader{"bad\n" + text, boom} },
		"fails before a bad value": func() io.Reader { return &failingReader{text + " 5:x", boom} },
		"fails at once":            func() io.Reader { return &failingReader{"", boom} },
		"no progress":              func() io.Reader { return &failingReader{text[:20], nil} },
		"EOF with data":            func() io.Reader { return iotest.DataErrReader(strings.NewReader(text)) },
		"one byte at a time":       func() io.Reader { return iotest.OneByteReader(strings.NewReader(text)) },
		"half reads":               func() io.Reader { return iotest.HalfReader(strings.NewReader(text + "\n" + text)) },
	}
	cfg := LibSVMConfig{P: kernels.I8, IdxBits: 16, Rounding: fixed.Unbiased, Seed: 1, Path: "f.svm"}
	for name, r := range readers {
		want, werr := refReadLibSVM(r(), cfg)
		for _, workers := range []int{1, 2, 3} {
			for _, size := range []int{1, 8, libsvmBlockSize} {
				got, err := readLibSVM(r(), cfg, size, workers)
				if diff := sameRead(got, err, want, werr); diff != "" {
					t.Errorf("%s, %d-byte blocks, %d workers: %s", name, size, workers, diff)
				}
				if werr != nil && errors.Unwrap(werr) != nil && errors.Unwrap(err) != errors.Unwrap(werr) {
					t.Errorf("%s: %v wraps %v, reference wraps %v", name, err, errors.Unwrap(err), errors.Unwrap(werr))
				}
			}
		}
	}
}
