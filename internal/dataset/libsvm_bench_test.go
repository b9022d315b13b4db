package dataset

import (
	"bytes"
	"io"
	"testing"

	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
)

// libsvmBenchSet is the shape of the repository benchmark's sparse
// training file: 20000 rows of about 65 features over 65536 coordinates.
func libsvmBenchSet(b *testing.B) *SparseSet {
	d, err := GenSparse(SparseConfig{N: 65536, M: 20000, Density: 0.001, P: kernels.I8, IdxBits: 16, Rounding: fixed.Unbiased, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := range d.Idx {
		sortPair(d.Idx[i], d.RawVal[i])
	}
	return d
}

func BenchmarkReadLibSVM(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteLibSVM(&buf, libsvmBenchSet(b)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for range b.N {
		if _, err := ReadLibSVM(bytes.NewReader(data), LibSVMConfig{P: kernels.I8, IdxBits: 16, Rounding: fixed.Unbiased, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteLibSVM(b *testing.B) {
	d := libsvmBenchSet(b)
	b.ResetTimer()
	for range b.N {
		if err := WriteLibSVM(io.Discard, d); err != nil {
			b.Fatal(err)
		}
	}
}
