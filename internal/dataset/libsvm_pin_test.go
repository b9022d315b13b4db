package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
)

// TestLibSVMPinned pins every output bit of the LIBSVM writer and reader:
// for each generated set, the SHA-256 of the bytes WriteLibSVM writes and
// of the set ReadLibSVM reads back (dimension, indices, raw and stored
// values, labels). The digests were captured from the single-goroutine,
// line-at-a-time reader and writer and are not to be edited. The writer
// runs at several worker counts and the reader at several block sizes and
// worker counts, none of which may move a bit.
func TestLibSVMPinned(t *testing.T) {
	cases := []struct {
		name              string
		gen               SparseConfig
		rounding          fixed.Rounding
		wantFile, wantSet string
	}{
		{"D8/i16", SparseConfig{N: 3000, M: 400, Density: 0.03, P: kernels.I8, IdxBits: 16, Rounding: fixed.Unbiased, Seed: 21}, fixed.Unbiased,
			"1eadc8fc466c1378aa2eaec44c21a4e6cf3ed645065468f0943fa75ec33729a0",
			"8ce2cb3278a4ef1f442a7a2bba3e2996ffc636917d9b5eb70ef787952ad33592"},
		{"D16/i32", SparseConfig{N: 3000, M: 400, Density: 0.03, P: kernels.I16, IdxBits: 32, Rounding: fixed.Biased, Seed: 22}, fixed.Biased,
			"526eb652c793d98b0a9d267dc62aa8326ce4be4ffe2a3e0032c2921987480259",
			"806d98663e4f0f2fe478cfc6f7dfc674a367541b7b73ee6fd863de2e5f0d197a"},
		{"D32f", SparseConfig{N: 3000, M: 400, Density: 0.03, P: kernels.F32, IdxBits: 32, Rounding: fixed.Unbiased, Seed: 23}, fixed.Unbiased,
			"accf9388c8b4004d1b214ec9b7ec4c60088d6e8d3d8bf6044862a1a5e27f3bd4",
			"55a93e401eefccc5baeb1e7f40f1b0d182cc44cfd08e3303c3ccb8b262e622fd"},
	}
	for _, c := range cases {
		d, err := GenSparse(c.gen)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range d.Idx {
			sortPair(d.Idx[i], d.RawVal[i])
		}
		var file []byte
		for _, workers := range []int{1, 2, 3, 8} {
			for _, size := range []int{64, 4096, libsvmBlockSize} {
				var buf bytes.Buffer
				if err := writeLibSVM(&buf, d, size, workers); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != c.wantFile {
					t.Errorf("%s, writing %d-byte blocks on %d workers: file digest %s, pinned %s", c.name, size, workers, got, c.wantFile)
				}
				file = buf.Bytes()
			}
		}
		cfg := LibSVMConfig{P: c.gen.P, IdxBits: c.gen.IdxBits, Rounding: c.rounding, Seed: c.gen.Seed}
		back, err := ReadLibSVM(bytes.NewReader(file), cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := libsvmDigest(back); got != c.wantSet {
			t.Errorf("%s: set digest %s, pinned %s", c.name, got, c.wantSet)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			for _, size := range []int{64, 4096, libsvmBlockSize} {
				back, err := readLibSVM(bytes.NewReader(file), cfg, size, workers)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if got := libsvmDigest(back); got != c.wantSet {
					t.Errorf("%s, reading %d-byte blocks on %d workers: set digest %s, pinned %s", c.name, size, workers, got, c.wantSet)
				}
			}
		}
	}
}

// libsvmDigest is sparseDigest over a read-back set, with its dimension.
func libsvmDigest(d *SparseSet) string {
	h := sha256.New()
	putWord(h, uint32(d.N))
	h.Write([]byte(sparseDigest(d)))
	return hex.EncodeToString(h.Sum(nil))
}
