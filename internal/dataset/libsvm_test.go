package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

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

func TestReadLibSVMNumFeatures(t *testing.T) {
	d, err := ReadLibSVM(strings.NewReader("+1 1:1\n"), LibSVMConfig{
		P: kernels.F32, NumFeatures: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 100 {
		t.Errorf("forced dimension = %d", d.N)
	}
	if _, err := ReadLibSVM(strings.NewReader("+1 50:1\n"), LibSVMConfig{
		P: kernels.F32, NumFeatures: 10,
	}); err == nil {
		t.Error("NumFeatures smaller than max index should fail")
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
	back, err := ReadLibSVM(&buf, LibSVMConfig{P: kernels.F32, NumFeatures: 200})
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
		cfg.NumFeatures = d.N
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
