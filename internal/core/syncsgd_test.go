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
		Problem:        Logistic,
		CommBits:       bits,
		Workers:        4,
		BatchPerWorker: 4,
		ErrorFeedback:  ef,
		StepSize:       0.1,
		Epochs:         6,
		Seed:           1,
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

// syncPins are FNV-64a digests of seeded TrainSyncDense runs: the bits of
// W and TrainLoss from a plain run, then the JSON form of NumStats (every
// field) from the NumHealth rerun, which must also reproduce W and
// TrainLoss. Keys are "C<bits>/ef=<bool>/W<workers>B<batch>/<problem>".
// They were captured before the round loop, the comm quantizer and the
// loss fan-out were rewritten, so they are the elementwise engine's
// answers, bit for bit.
var syncPins = map[string]uint64{
	"C1/ef=false/W1B1/logistic":  0xd2529a4b9cf10fe6,
	"C1/ef=false/W1B1/linear":    0xff9a63acb1d84153,
	"C1/ef=false/W1B1/svm":       0xb5d97b9f9f20ad13,
	"C1/ef=false/W4B1/logistic":  0x7899a7b9bb294307,
	"C1/ef=false/W4B1/linear":    0xc03b6ba09141d7c1,
	"C1/ef=false/W4B1/svm":       0x49d08e852cca30fe,
	"C1/ef=false/W3B5/logistic":  0x620707f1bfc95a3b,
	"C1/ef=false/W3B5/linear":    0xa09675b7d40fb514,
	"C1/ef=false/W3B5/svm":       0x21f5dd31539d6cdd,
	"C1/ef=true/W1B1/logistic":   0x7df28a376c113148,
	"C1/ef=true/W1B1/linear":     0x817aae567652e302,
	"C1/ef=true/W1B1/svm":        0x376b278e8cfb5bb6,
	"C1/ef=true/W4B1/logistic":   0xea406d1d2c258a35,
	"C1/ef=true/W4B1/linear":     0xb0cc19abdd180044,
	"C1/ef=true/W4B1/svm":        0xe1864c3a2931ed20,
	"C1/ef=true/W3B5/logistic":   0x598e1a6452ad5e6,
	"C1/ef=true/W3B5/linear":     0x54e7ef2c4a012aed,
	"C1/ef=true/W3B5/svm":        0x43c6a0ddd59acbff,
	"C2/ef=false/W1B1/logistic":  0xf8d0fa41d644cd5b,
	"C2/ef=false/W1B1/linear":    0x9dfb7a20998c2d31,
	"C2/ef=false/W1B1/svm":       0xc6c7488568a52b19,
	"C2/ef=false/W4B1/logistic":  0xc2857ef6d548e7bc,
	"C2/ef=false/W4B1/linear":    0x1eff3f9c11ebd19c,
	"C2/ef=false/W4B1/svm":       0x9b738c7818c0a2e1,
	"C2/ef=false/W3B5/logistic":  0x40cd9ff7154db8d3,
	"C2/ef=false/W3B5/linear":    0x453db850b9312883,
	"C2/ef=false/W3B5/svm":       0xe94c07d6d2c2746e,
	"C2/ef=true/W1B1/logistic":   0xf81611b98eef6757,
	"C2/ef=true/W1B1/linear":     0xebf2a7e498d52860,
	"C2/ef=true/W1B1/svm":        0xc3009f4f40d6aed0,
	"C2/ef=true/W4B1/logistic":   0x990f3b6a8e5b3730,
	"C2/ef=true/W4B1/linear":     0x521aedd9b4542767,
	"C2/ef=true/W4B1/svm":        0xd02cdf4139e58867,
	"C2/ef=true/W3B5/logistic":   0xe60aa1d0067d12,
	"C2/ef=true/W3B5/linear":     0x38df5dbc1767fb6d,
	"C2/ef=true/W3B5/svm":        0x961e186eb59a4ad9,
	"C8/ef=false/W1B1/logistic":  0x6309da57da6dc366,
	"C8/ef=false/W1B1/linear":    0x11d5cf636c9d10c4,
	"C8/ef=false/W1B1/svm":       0x9c6781ebb086fda2,
	"C8/ef=false/W4B1/logistic":  0xc5a1042913693e5f,
	"C8/ef=false/W4B1/linear":    0xc71004db5d3adb92,
	"C8/ef=false/W4B1/svm":       0xc2454b55999fa216,
	"C8/ef=false/W3B5/logistic":  0x56e1e91fcb7fcd7a,
	"C8/ef=false/W3B5/linear":    0xb3218ad35a878da3,
	"C8/ef=false/W3B5/svm":       0x77c7ba4f50fa95d9,
	"C8/ef=true/W1B1/logistic":   0x4af63891b978e5ca,
	"C8/ef=true/W1B1/linear":     0x92ddd00377bac798,
	"C8/ef=true/W1B1/svm":        0x9b491a8b33cbe587,
	"C8/ef=true/W4B1/logistic":   0x71f37453db00b34,
	"C8/ef=true/W4B1/linear":     0x11394e3b7981683c,
	"C8/ef=true/W4B1/svm":        0x4897e2154e86c2ec,
	"C8/ef=true/W3B5/logistic":   0x986de21f6488be29,
	"C8/ef=true/W3B5/linear":     0x91e2660c93c8d8f8,
	"C8/ef=true/W3B5/svm":        0x7d9fc0883ed2e0dc,
	"C16/ef=false/W1B1/logistic": 0x8306ea9850c2d27f,
	"C16/ef=false/W1B1/linear":   0xaf0cd6f8fca4e31d,
	"C16/ef=false/W1B1/svm":      0x786c0699f466052d,
	"C16/ef=false/W4B1/logistic": 0x50dd6d007557004e,
	"C16/ef=false/W4B1/linear":   0x5db627440f6dc1a3,
	"C16/ef=false/W4B1/svm":      0xfb174c2f40154e0,
	"C16/ef=false/W3B5/logistic": 0x23232d2d29ccf5a8,
	"C16/ef=false/W3B5/linear":   0xebc428da5bff4e80,
	"C16/ef=false/W3B5/svm":      0x7a599f1008941567,
	"C16/ef=true/W1B1/logistic":  0x15453b8fd04755eb,
	"C16/ef=true/W1B1/linear":    0xaf1188ca63d0d6a9,
	"C16/ef=true/W1B1/svm":       0xb11b5ff334712b01,
	"C16/ef=true/W4B1/logistic":  0xe62f66df49058296,
	"C16/ef=true/W4B1/linear":    0xbf89f80a33f612fc,
	"C16/ef=true/W4B1/svm":       0x760675e526cb6d9a,
	"C16/ef=true/W3B5/logistic":  0xc3267d333c328946,
	"C16/ef=true/W3B5/linear":    0x11d45a280249e016,
	"C16/ef=true/W3B5/svm":       0xfd3ffb77776dc6a1,
	"C32/ef=false/W1B1/logistic": 0x15d37bb679fbbd18,
	"C32/ef=false/W1B1/linear":   0xc70f6d47aa944282,
	"C32/ef=false/W1B1/svm":      0x78903a0f1ed4b1f0,
	"C32/ef=false/W4B1/logistic": 0x90bcf5a2c91c7c26,
	"C32/ef=false/W4B1/linear":   0x91e53afe9bb3c01e,
	"C32/ef=false/W4B1/svm":      0xe82cc82d7bfb9ed0,
	"C32/ef=false/W3B5/logistic": 0x31de7c5a041b1a0b,
	"C32/ef=false/W3B5/linear":   0xb2ec2c6a103e2450,
	"C32/ef=false/W3B5/svm":      0x99a19a89ed95aa60,
	"C32/ef=true/W1B1/logistic":  0x15d37bb679fbbd18,
	"C32/ef=true/W1B1/linear":    0xc70f6d47aa944282,
	"C32/ef=true/W1B1/svm":       0x78903a0f1ed4b1f0,
	"C32/ef=true/W4B1/logistic":  0x90bcf5a2c91c7c26,
	"C32/ef=true/W4B1/linear":    0x91e53afe9bb3c01e,
	"C32/ef=true/W4B1/svm":       0xe82cc82d7bfb9ed0,
	"C32/ef=true/W3B5/logistic":  0x31de7c5a041b1a0b,
	"C32/ef=true/W3B5/linear":    0xb2ec2c6a103e2450,
	"C32/ef=true/W3B5/svm":       0x99a19a89ed95aa60,
}

func TestSyncPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pins captured on amd64; other architectures may fuse float multiply-adds in the gradient path")
	}
	ds := syncData(t)
	rows := 0
	for _, bits := range []uint{1, 2, 8, 16, 32} {
		for _, ef := range []bool{false, true} {
			for _, shape := range [][2]int{{1, 1}, {4, 1}, {3, 5}} {
				for _, p := range []Problem{Logistic, Linear, SVM} {
					rows++
					cfg := SyncConfig{Problem: p, CommBits: bits, Workers: shape[0], BatchPerWorker: shape[1],
						ErrorFeedback: ef, StepSize: 0.05, Epochs: 3, Seed: 1}
					name := fmt.Sprintf("C%d/ef=%v/W%dB%d/%v", bits, ef, shape[0], shape[1], p)
					t.Run(name, func(t *testing.T) {
						res, err := TrainSyncDense(cfg, ds)
						if err != nil {
							t.Fatal(err)
						}
						cfg.CollectNumHealth = true
						health, err := TrainSyncDense(cfg, ds)
						if err != nil {
							t.Fatal(err)
						}
						got := pinOf(t, res, health)
						if counted := pinOf(t, health, health); counted != got {
							t.Errorf("NumHealth changed the run: %#x vs %#x", counted, got)
						}
						if want := syncPins[name]; got.digest() != want {
							t.Errorf("got %#x, want %#x", got.digest(), want)
						}
					})
				}
			}
		}
	}
	if rows != len(syncPins) {
		t.Errorf("%d rows but %d pins", rows, len(syncPins))
	}
}

// digest folds a pin's three digests into one.
func (p enginePin) digest() uint64 {
	var b []byte
	for _, v := range [3]uint64{p.w, p.loss, p.num} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return fnv64(b)
}
