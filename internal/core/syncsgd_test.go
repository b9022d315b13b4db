package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
)

func syncData(t *testing.T) *dataset.DenseSet {
	t.Helper()
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 64, M: 2048, P: kernels.F32, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func syncRun(t *testing.T, ds *dataset.DenseSet, bits uint, ef bool) *Result {
	t.Helper()
	res, err := TrainSyncDense(SyncConfig{
		Problem:       Logistic,
		CommBits:      bits,
		Workers:       4,
		ErrorFeedback: ef,
		StepSize:      0.1,
		Epochs:        6,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSyncFullPrecisionConverges(t *testing.T) {
	ds := syncData(t)
	res := syncRun(t, ds, 32, false)
	if last := res.TrainLoss[len(res.TrainLoss)-1]; last >= res.TrainLoss[0]*0.8 {
		t.Errorf("synchronous SGD did not converge: %v", res.TrainLoss)
	}
	if res.Steps == 0 {
		t.Error("no rounds executed")
	}
}

func TestOneBitWithErrorFeedbackMatchesFullPrecision(t *testing.T) {
	// The Seide et al. result (Table 1, C1s): 1-bit gradients with a
	// carried-forward error converge close to full precision.
	ds := syncData(t)
	full := syncRun(t, ds, 32, false)
	oneBit := syncRun(t, ds, 1, true)
	lf := full.TrainLoss[len(full.TrainLoss)-1]
	lo := oneBit.TrainLoss[len(oneBit.TrainLoss)-1]
	if lo > lf*1.3+0.05 {
		t.Errorf("1-bit+EF loss %v too far above full-precision %v", lo, lf)
	}
}

func TestErrorFeedbackMatters(t *testing.T) {
	// Without the carried-forward residual, 1-bit quantization loses
	// the gradient magnitude information and converges worse.
	ds := syncData(t)
	withEF := syncRun(t, ds, 1, true)
	withoutEF := syncRun(t, ds, 1, false)
	le := withEF.TrainLoss[len(withEF.TrainLoss)-1]
	ln := withoutEF.TrainLoss[len(withoutEF.TrainLoss)-1]
	if le >= ln {
		t.Errorf("error feedback (%v) should beat none (%v) at 1 bit", le, ln)
	}
}

func TestMidPrecisionComm(t *testing.T) {
	ds := syncData(t)
	full := syncRun(t, ds, 32, false)
	eight := syncRun(t, ds, 8, true)
	lf := full.TrainLoss[len(full.TrainLoss)-1]
	l8 := eight.TrainLoss[len(eight.TrainLoss)-1]
	if l8 > lf*1.15+0.02 {
		t.Errorf("8-bit comm loss %v too far above full %v", l8, lf)
	}
}

func TestSyncValidation(t *testing.T) {
	ds := syncData(t)
	if _, err := TrainSyncDense(SyncConfig{CommBits: 0, StepSize: 0.1}, ds); err == nil {
		t.Error("zero CommBits should fail")
	}
	if _, err := TrainSyncDense(SyncConfig{CommBits: 33, StepSize: 0.1}, ds); err == nil {
		t.Error("CommBits > 32 should fail")
	}
	if _, err := TrainSyncDense(SyncConfig{CommBits: 8}, ds); err == nil {
		t.Error("zero step should fail")
	}
	if _, err := TrainSyncDense(SyncConfig{CommBits: 8, StepSize: 0.1}, nil); err == nil {
		t.Error("nil dataset should fail")
	}
}

func TestSyncLossHelper(t *testing.T) {
	ds := syncData(t)
	w := make([]float32, ds.N)
	for _, p := range []Problem{Logistic, Linear, SVM} {
		if _, err := SyncLoss(p, w, ds); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
}

// syncModelPins are FNV-64a digests of seeded TrainSyncDense runs: the
// digest of the W and TrainLoss digests of modelDigests. Keys are
// "C<bits>/ef=<bool>/W<workers>B1/<problem>". They were captured before
// the round loop, the comm quantizer and the loss fan-out were rewritten,
// so they are the elementwise engine's answers, bit for bit.
var syncModelPins = map[string]uint64{
	"C1/ef=false/W1B1/logistic":  0xec55bd1840415c5d,
	"C1/ef=false/W1B1/linear":    0x71103eadf5295f34,
	"C1/ef=false/W1B1/svm":       0xeb1a2effa77e91f4,
	"C1/ef=false/W4B1/logistic":  0xf07fde5f2d359378,
	"C1/ef=false/W4B1/linear":    0xe3588eeb61ce1a66,
	"C1/ef=false/W4B1/svm":       0x7079711525625545,
	"C1/ef=true/W1B1/logistic":   0x563fe76a4572911b,
	"C1/ef=true/W1B1/linear":     0x9656d2c9b6191069,
	"C1/ef=true/W1B1/svm":        0xa498da841dd0a82d,
	"C1/ef=true/W4B1/logistic":   0x4b3908a4ec98a11a,
	"C1/ef=true/W4B1/linear":     0x4d8f3f123e081b37,
	"C1/ef=true/W4B1/svm":        0xaac3b6cfcac5a863,
	"C2/ef=false/W1B1/logistic":  0xeaf99c0571444173,
	"C2/ef=false/W1B1/linear":    0xe79353264ef827a3,
	"C2/ef=false/W1B1/svm":       0x65f86bcab24c9be8,
	"C2/ef=false/W4B1/logistic":  0xc0ae7bb98a0e1b27,
	"C2/ef=false/W4B1/linear":    0x7d5298f1322248be,
	"C2/ef=false/W4B1/svm":       0xf0993083be6b5fb3,
	"C2/ef=true/W1B1/logistic":   0x5955992b754b2a8b,
	"C2/ef=true/W1B1/linear":     0x54460055476aa573,
	"C2/ef=true/W1B1/svm":        0xd6e0f0b3725ca0e6,
	"C2/ef=true/W4B1/logistic":   0x89636df3a19516d,
	"C2/ef=true/W4B1/linear":     0xf87c5d520f869d7f,
	"C2/ef=true/W4B1/svm":        0x4858f847d6b0e740,
	"C8/ef=false/W1B1/logistic":  0x6342826e91a45710,
	"C8/ef=false/W1B1/linear":    0x7619530202da427e,
	"C8/ef=false/W1B1/svm":       0xec1010021c5f0402,
	"C8/ef=false/W4B1/logistic":  0x2d799f0bb79550c2,
	"C8/ef=false/W4B1/linear":    0xf1d1da7c9b820036,
	"C8/ef=false/W4B1/svm":       0xce84f098b0cdb6d9,
	"C8/ef=true/W1B1/logistic":   0x5f8644753322635e,
	"C8/ef=true/W1B1/linear":     0x77aff77117e2ad68,
	"C8/ef=true/W1B1/svm":        0xf732405c57e6f6c0,
	"C8/ef=true/W4B1/logistic":   0xd4fd60a80b4c7820,
	"C8/ef=true/W4B1/linear":     0xd561972642a695a8,
	"C8/ef=true/W4B1/svm":        0x6e486f2a8c0a2210,
	"C16/ef=false/W1B1/logistic": 0xe67df22dd1822896,
	"C16/ef=false/W1B1/linear":   0x1f11cf3506ba487c,
	"C16/ef=false/W1B1/svm":      0xf60e9de059b6e5ac,
	"C16/ef=false/W4B1/logistic": 0xcc64b708f8fcc1de,
	"C16/ef=false/W4B1/linear":   0x5c27cc68e7dce030,
	"C16/ef=false/W4B1/svm":      0xd6a8f9b26cc2d8d1,
	"C16/ef=true/W1B1/logistic":  0x950f487986c27a89,
	"C16/ef=true/W1B1/linear":    0x4fc54b46b5b1ce11,
	"C16/ef=true/W1B1/svm":       0x43952ac51c04a2de,
	"C16/ef=true/W4B1/logistic":  0x96469e98af1c9ebf,
	"C16/ef=true/W4B1/linear":    0xe4ecc8ebf1fc21dc,
	"C16/ef=true/W4B1/svm":       0xb7ff4e1c020d0cd2,
	"C32/ef=false/W1B1/logistic": 0x305c15ae521c556b,
	"C32/ef=false/W1B1/linear":   0xc457927d72917fe9,
	"C32/ef=false/W1B1/svm":      0x9e009dcee605e7f3,
	"C32/ef=false/W4B1/logistic": 0x84ea42acea6a7c9d,
	"C32/ef=false/W4B1/linear":   0xb696366712fe6ea5,
	"C32/ef=false/W4B1/svm":      0xdf40dbc970b9aa13,
	"C32/ef=true/W1B1/logistic":  0x305c15ae521c556b,
	"C32/ef=true/W1B1/linear":    0xc457927d72917fe9,
	"C32/ef=true/W1B1/svm":       0x9e009dcee605e7f3,
	"C32/ef=true/W4B1/logistic":  0x84ea42acea6a7c9d,
	"C32/ef=true/W4B1/linear":    0xb696366712fe6ea5,
	"C32/ef=true/W4B1/svm":       0xdf40dbc970b9aa13,
}

func TestSyncPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pins captured on amd64; other architectures may fuse float multiply-adds in the gradient path")
	}
	ds := syncData(t)
	rows := 0
	for _, bits := range []uint{1, 2, 8, 16, 32} {
		for _, ef := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				for _, p := range []Problem{Logistic, Linear, SVM} {
					rows++
					cfg := SyncConfig{Problem: p, CommBits: bits, Workers: workers,
						ErrorFeedback: ef, StepSize: 0.05, Epochs: 3}
					name := fmt.Sprintf("C%d/ef=%v/W%dB1/%v", bits, ef, workers, p)
					t.Run(name, func(t *testing.T) {
						res, err := TrainSyncDense(cfg, ds)
						if err != nil {
							t.Fatal(err)
						}
						w, loss := modelDigests(res)
						var b []byte
						b = binary.LittleEndian.AppendUint64(b, w)
						b = binary.LittleEndian.AppendUint64(b, loss)
						if got, want := fnv64(b), syncModelPins[name]; got != want {
							t.Errorf("got %#x, want %#x", got, want)
						}
					})
				}
			}
		}
	}
	if rows != len(syncModelPins) {
		t.Errorf("%d rows but %d pins", rows, len(syncModelPins))
	}
}
