package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
)

// TestGeneratorsPinned pins every output bit of the two logistic-model
// generators: one SHA-256 per config over the true model, the raw rows,
// the stored (quantized) values and the labels. The digests were captured
// from the single-goroutine generator and are not to be edited: a change
// that moves one has changed the data every experiment trains on. The dense
// configs also run through genDense at several worker counts, which must
// not move a bit either — the row blocks jump the generator streams rather
// than reseeding them.
func TestGeneratorsPinned(t *testing.T) {
	base := DenseConfig{N: 64, M: 301, P: kernels.I8, Rounding: fixed.Unbiased, Seed: 11}
	with := func(f func(*DenseConfig)) DenseConfig {
		c := base
		f(&c)
		return c
	}
	dense := []struct {
		name string
		cfg  DenseConfig
		want string
	}{
		{"D8/unbiased", base, "e002e639b13a1ae5553a584f3c0584512d92afbb87df7342fa2035a56249293b"},
		{"D8/biased", with(func(c *DenseConfig) { c.Rounding = fixed.Biased }), "cf49ddb985c190326ec4c37fbf9a1ca76635b81705b4c590eb5cf7207e267157"},
		{"D16/unbiased", with(func(c *DenseConfig) { c.P = kernels.I16 }), "b5147bc46c3d736b8abef93e1df3a9604086f65e02bda287218ef4dcce4f83e1"},
		{"D16/biased", with(func(c *DenseConfig) { c.P, c.Rounding = kernels.I16, fixed.Biased }), "47be93e49667d2ba28fdde8e22e319407f666c2eb2b66c7b74d8792f4821a846"},
		{"D4/unbiased", with(func(c *DenseConfig) { c.P = kernels.I4 }), "0afec804a454d59b07be5efe966267b305d69a74f5e4b9b1944b0a65ba40aa17"},
		{"D4/biased", with(func(c *DenseConfig) { c.P, c.Rounding = kernels.I4, fixed.Biased }), "d2bc0475ca1336ed382673edabf93df9ed85870ce7e3dacde9a6231dff3fe144"},
		{"D32f/unbiased", with(func(c *DenseConfig) { c.P = kernels.F32 }), "2e44c77f43769c8d547d7615ecc2fcdf373c055c5542a4de5abedae5d599ba1b"},
		{"D32f/biased", with(func(c *DenseConfig) { c.P, c.Rounding = kernels.F32, fixed.Biased }), "2e44c77f43769c8d547d7615ecc2fcdf373c055c5542a4de5abedae5d599ba1b"},
		{"N=37", with(func(c *DenseConfig) { c.N = 37 }), "5f067e3b2d4872b6ca035ed0fca0ed62b085dea4e46942fcce8763282762778c"},
		{"M=1", with(func(c *DenseConfig) { c.M = 1 }), "538571da4c9c0962870dfccff3d124aeb052a1392b9e0e532ebc256f90918e88"},
		{"M=3", with(func(c *DenseConfig) { c.M = 3 }), "05a242cef0c3b950759dcb5dac71001eb49c668acd82875de7f441b1c4725d7c"},
	}
	for _, c := range dense {
		d, err := GenDense(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := denseDigest(d); got != c.want {
			t.Errorf("%s: digest %s, pinned %s", c.name, got, c.want)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			d, err := genDense(c.cfg, workers)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", c.name, workers, err)
			}
			if got := denseDigest(d); got != c.want {
				t.Errorf("%s, %d workers: digest %s, pinned %s", c.name, workers, got, c.want)
			}
		}
	}

	sparse := []struct {
		name string
		cfg  SparseConfig
		want string
	}{
		{"D8i8/unbiased", SparseConfig{N: 500, M: 120, Density: 0.03, P: kernels.I8, IdxBits: 8, Rounding: fixed.Unbiased, Seed: 12}, "42e3a361a24a1dc90087f6fece8198e3fe0ac7a315c95ab374d3d72279a15958"},
		{"D16i16/biased", SparseConfig{N: 500, M: 120, Density: 0.03, P: kernels.I16, IdxBits: 16, Rounding: fixed.Biased, Seed: 13}, "7a8addfdc7189f905c42ea20110da267c45a7f5b126f9f039590861c39ca2211"},
		{"D4i32/unbiased", SparseConfig{N: 500, M: 120, Density: 0.03, P: kernels.I4, IdxBits: 32, Rounding: fixed.Unbiased, Seed: 14}, "6247aaa32fa46cc5ffa0daa11451901cf261f6fed8e6ac315d841776449aa0b1"},
	}
	for _, c := range sparse {
		d, err := GenSparse(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := sparseDigest(d); got != c.want {
			t.Errorf("%s: digest %s, pinned %s", c.name, got, c.want)
		}
	}
}

func denseDigest(d *DenseSet) string {
	h := sha256.New()
	putFloats(h, d.TrueW)
	for i := range d.X {
		putFloats(h, d.Raw[i])
		putVec(h, d.X[i])
	}
	putFloats(h, d.Y)
	return hex.EncodeToString(h.Sum(nil))
}

func sparseDigest(d *SparseSet) string {
	h := sha256.New()
	putFloats(h, d.TrueW)
	for i := range d.Idx {
		for _, j := range d.Idx[i] {
			putWord(h, uint32(j))
		}
		putFloats(h, d.RawVal[i])
		putVec(h, d.Val[i])
	}
	putFloats(h, d.Y)
	return hex.EncodeToString(h.Sum(nil))
}

func putWord(h hash.Hash, w uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], w)
	h.Write(b[:])
}

func putFloats(h hash.Hash, xs []float32) {
	for _, x := range xs {
		putWord(h, math.Float32bits(x))
	}
}

// putVec hashes a stored vector's raw values: float bits at F32, the
// fixed-point integers otherwise.
func putVec(h hash.Hash, v kernels.Vec) {
	for i := 0; i < v.Len(); i++ {
		if v.P == kernels.F32 {
			putWord(h, math.Float32bits(v.F32[i]))
		} else {
			putWord(h, uint32(v.Raw(i)))
		}
	}
}
