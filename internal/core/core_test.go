package core

import (
	"math"
	"testing"

	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
	"buckwild/internal/prng"
)

func denseData(t *testing.T, n, m int, p kernels.Prec, seed uint64) *dataset.DenseSet {
	t.Helper()
	ds, err := dataset.GenDense(dataset.DenseConfig{N: n, M: m, P: p, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func baseCfg(d, m kernels.Prec) Config {
	return Config{
		Problem:     Logistic,
		D:           d,
		M:           m,
		Variant:     kernels.HandOpt,
		Quant:       kernels.QShared,
		QuantPeriod: 8,
		Threads:     1,
		StepSize:    0.1,
		Epochs:      5,
		Sharing:     Sequential,
		Seed:        7,
	}
}

func TestTrainDenseFullPrecisionConverges(t *testing.T) {
	ds := denseData(t, 64, 2000, kernels.F32, 1)
	cfg := baseCfg(kernels.F32, kernels.F32)
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.TrainLoss[0], res.TrainLoss[len(res.TrainLoss)-1]
	if last >= first*0.8 {
		t.Errorf("loss did not fall enough: %v -> %v", first, last)
	}
	wrong := 0
	for i, x := range ds.Raw {
		var dot float64
		for j, v := range x {
			dot += float64(v) * float64(res.W[j])
		}
		if (dot >= 0) != (ds.Y[i] > 0) {
			wrong++
		}
	}
	if errRate := float64(wrong) / float64(ds.Len()); errRate > 0.25 {
		t.Errorf("training error %v too high", errRate)
	}
	if res.Steps != 5*2000 {
		t.Errorf("Steps = %d", res.Steps)
	}
	if res.NumbersPerSec <= 0 {
		t.Error("throughput not measured")
	}
}

func TestTrainDenseLowPrecisionConverges(t *testing.T) {
	// The paper's headline statistical claim: 8-bit Buckwild! with
	// unbiased rounding reaches quality close to full precision.
	ds32 := denseData(t, 64, 2000, kernels.F32, 2)
	ds8, err := dataset.GenDense(dataset.DenseConfig{N: 64, M: 2000, P: kernels.I8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Train(baseCfg(kernels.F32, kernels.F32), ds32)
	if err != nil {
		t.Fatal(err)
	}
	low, err := Train(baseCfg(kernels.I8, kernels.I8), ds8)
	if err != nil {
		t.Fatal(err)
	}
	fl := full.TrainLoss[len(full.TrainLoss)-1]
	ll := low.TrainLoss[len(low.TrainLoss)-1]
	if ll > fl*1.35+0.05 {
		t.Errorf("8-bit loss %v too far above full-precision loss %v", ll, fl)
	}
}

func TestBiasedRoundingHurtsAtLowPrecision(t *testing.T) {
	// Figure 5a: biased rounding stalls (small updates vanish), while
	// unbiased keeps making progress.
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 64, M: 1500, P: kernels.I8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	unb := baseCfg(kernels.I8, kernels.I8)
	unb.StepSize = 0.02
	biased := unb
	biased.Quant = kernels.QBiased
	ru, err := Train(unb, ds)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Train(biased, ds)
	if err != nil {
		t.Fatal(err)
	}
	lu := ru.TrainLoss[len(ru.TrainLoss)-1]
	lb := rb.TrainLoss[len(rb.TrainLoss)-1]
	if lu >= lb {
		t.Errorf("unbiased (%v) should beat biased (%v) at small steps", lu, lb)
	}
}

func TestRacyHogwildConverges(t *testing.T) {
	ds := denseData(t, 64, 2000, kernels.I8, 4)
	cfg := baseCfg(kernels.I8, kernels.I8)
	cfg.Sharing = Racy
	cfg.Threads = 4
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.TrainLoss[0], res.TrainLoss[len(res.TrainLoss)-1]
	if last >= first*0.85 {
		t.Errorf("racy training did not converge: %v -> %v", first, last)
	}
}

func TestLockedMatchesRacyQuality(t *testing.T) {
	ds := denseData(t, 48, 1500, kernels.I8, 5)
	racy := baseCfg(kernels.I8, kernels.I8)
	racy.Sharing = Racy
	racy.Threads = 4
	locked := racy
	locked.Sharing = Locked
	rr, err := Train(racy, ds)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Train(locked, ds)
	if err != nil {
		t.Fatal(err)
	}
	lr := rr.TrainLoss[len(rr.TrainLoss)-1]
	ll := rl.TrainLoss[len(rl.TrainLoss)-1]
	if math.Abs(lr-ll) > 0.2*math.Max(lr, ll)+0.05 {
		t.Errorf("racy (%v) and locked (%v) should reach similar quality", lr, ll)
	}
}

func TestMiniBatchTrains(t *testing.T) {
	ds := denseData(t, 64, 2000, kernels.I8, 6)
	cfg := baseCfg(kernels.I8, kernels.I8)
	cfg.MiniBatch = 8
	cfg.StepSize = 0.4
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.TrainLoss[0], res.TrainLoss[len(res.TrainLoss)-1]
	if last >= first*0.9 {
		t.Errorf("mini-batch training did not converge: %v -> %v", first, last)
	}
	if res.Steps != 5*(2000/8) {
		t.Errorf("Steps = %d", res.Steps)
	}
}

func TestVeryLargeMiniBatchHurtsStatistically(t *testing.T) {
	// Figure 6e: with the epoch budget fixed, very large B makes fewer
	// updates and converges worse.
	ds := denseData(t, 64, 2000, kernels.F32, 7)
	small := baseCfg(kernels.F32, kernels.F32)
	small.MiniBatch = 1
	big := small
	big.MiniBatch = 256
	rs, err := Train(small, ds)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Train(big, ds)
	if err != nil {
		t.Fatal(err)
	}
	ls := rs.TrainLoss[len(rs.TrainLoss)-1]
	lb := rb.TrainLoss[len(rb.TrainLoss)-1]
	if lb <= ls {
		t.Errorf("B=256 (%v) should trail B=1 (%v) at fixed epochs", lb, ls)
	}
}

func TestLinearAndSVMProblems(t *testing.T) {
	// Regression targets y = <x, w*> + noise, drawn over a logistic set.
	lin := denseData(t, 32, 1000, kernels.F32, 8)
	noise := prng.NewXorshift128(8)
	for i, x := range lin.Raw {
		var dot float64
		for j, v := range x {
			dot += float64(v) * float64(lin.TrueW[j])
		}
		lin.Y[i] = float32(dot*8/math.Sqrt(32)) + 0.05*(2*prng.Float32(noise)-1)
	}
	cfg := baseCfg(kernels.F32, kernels.F32)
	cfg.Problem = Linear
	cfg.StepSize = 0.05
	res, err := Train(cfg, lin)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainLoss[len(res.TrainLoss)-1] >= res.TrainLoss[0]*0.5 {
		t.Errorf("linear regression did not converge: %v", res.TrainLoss)
	}

	svm := denseData(t, 32, 1000, kernels.F32, 9)
	cfg = baseCfg(kernels.F32, kernels.F32)
	cfg.Problem = SVM
	cfg.StepSize = 0.02
	res, err = Train(cfg, svm)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainLoss[len(res.TrainLoss)-1] >= res.TrainLoss[0]*0.8 {
		t.Errorf("SVM did not converge: %v", res.TrainLoss)
	}
}

func TestTrainSparseConverges(t *testing.T) {
	ds, err := dataset.GenSparse(dataset.SparseConfig{
		N: 512, M: 2000, Density: 0.03, P: kernels.I8, IdxBits: 16, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg(kernels.I8, kernels.I8)
	cfg.StepSize = 0.2
	cfg.Epochs = 8
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.TrainLoss[0], res.TrainLoss[len(res.TrainLoss)-1]
	if last >= first*0.9 {
		t.Errorf("sparse training did not converge: %v -> %v", first, last)
	}
}

func TestTrainSparseRacyThreads(t *testing.T) {
	ds, err := dataset.GenSparse(dataset.SparseConfig{
		N: 512, M: 2000, Density: 0.03, P: kernels.I8, IdxBits: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg(kernels.I8, kernels.I8)
	cfg.Sharing = Racy
	cfg.Threads = 4
	cfg.StepSize = 0.2
	cfg.Epochs = 8
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainLoss[len(res.TrainLoss)-1] >= res.TrainLoss[0]*0.9 {
		t.Error("racy sparse training did not converge")
	}
}

func TestConfigValidation(t *testing.T) {
	ds := denseData(t, 8, 10, kernels.I8, 12)
	cfg := baseCfg(kernels.I8, kernels.I8)
	cfg.StepSize = 0
	if _, err := Train(cfg, ds); err == nil {
		t.Error("zero step size should fail")
	}
	cfg = baseCfg(kernels.I8, kernels.I8)
	cfg.StepDecay = 2
	if _, err := Train(cfg, ds); err == nil {
		t.Error("decay > 1 should fail")
	}
	cfg = baseCfg(kernels.I16, kernels.I8) // dataset stored at I8
	if _, err := Train(cfg, ds); err == nil {
		t.Error("precision mismatch should fail")
	}
	if _, err := Train(baseCfg(kernels.I8, kernels.I8), nil); err == nil {
		t.Error("nil dataset should fail")
	}
	sp, _ := dataset.GenSparse(dataset.SparseConfig{N: 64, M: 10, Density: 0.1, P: kernels.I8, IdxBits: 16, Seed: 1})
	scfg := baseCfg(kernels.I8, kernels.I8)
	scfg.MiniBatch = 4
	if _, err := Train(scfg, sp); err == nil {
		t.Error("sparse mini-batch should be rejected")
	}
}

func TestStepDecayReducesStep(t *testing.T) {
	ds := denseData(t, 32, 500, kernels.F32, 13)
	cfg := baseCfg(kernels.F32, kernels.F32)
	cfg.StepDecay = 0.5
	cfg.Epochs = 6
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	// Later epochs should move the loss less than early ones.
	early := math.Abs(res.TrainLoss[1] - res.TrainLoss[0])
	late := math.Abs(res.TrainLoss[6] - res.TrainLoss[5])
	if late > early {
		t.Errorf("decayed steps should change loss less: early %v, late %v", early, late)
	}
}

func TestEnumStrings(t *testing.T) {
	if Logistic.String() != "logistic" || Linear.String() != "linear" || SVM.String() != "svm" {
		t.Error("Problem names")
	}
	if Racy.String() != "racy" || Locked.String() != "locked" || Sequential.String() != "sequential" {
		t.Error("Sharing names")
	}
}

func TestObstinateEmulationConverges(t *testing.T) {
	// Figure 6f: even very high obstinacy has no detectable effect on
	// statistical efficiency.
	ds := denseData(t, 64, 2000, kernels.I8, 20)
	run := func(q float64) float64 {
		cfg := baseCfg(kernels.I8, kernels.I8)
		cfg.Sharing = Racy
		cfg.Threads = 4
		cfg.ObstinateQ = q
		res, err := Train(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res.TrainLoss[len(res.TrainLoss)-1]
	}
	coherent := run(0)
	obstinate := run(0.95)
	if obstinate > coherent*1.3+0.05 {
		t.Errorf("q=0.95 loss %v too far above coherent loss %v", obstinate, coherent)
	}
}

func TestObstinateQValidation(t *testing.T) {
	ds := denseData(t, 8, 10, kernels.I8, 21)
	cfg := baseCfg(kernels.I8, kernels.I8)
	cfg.ObstinateQ = 1.5
	if _, err := Train(cfg, ds); err == nil {
		t.Error("q > 1 should fail")
	}
}

func TestGradientPrecision(t *testing.T) {
	// The DMGC G term: a 10-bit gradient grid (Courbariaux et al.)
	// should barely change convergence; a 6-bit grid visibly hurts.
	ds := denseData(t, 64, 2000, kernels.F32, 30)
	run := func(gradBits uint) float64 {
		cfg := baseCfg(kernels.F32, kernels.F32)
		cfg.GradBits = gradBits
		res, err := Train(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res.TrainLoss[len(res.TrainLoss)-1]
	}
	full := run(0)
	g10 := run(10)
	g6 := run(6)
	if g10 > full*1.2+0.02 {
		t.Errorf("G10 loss %v too far above full %v", g10, full)
	}
	if g6 < g10 {
		t.Errorf("G6 (%v) should not beat G10 (%v)", g6, g10)
	}
}

func TestGradientPrecisionValidation(t *testing.T) {
	ds := denseData(t, 8, 10, kernels.I8, 31)
	cfg := baseCfg(kernels.I8, kernels.I8)
	cfg.GradBits = 3
	if _, err := Train(cfg, ds); err == nil {
		t.Error("GradBits below 6 should fail")
	}
}

func TestGradientPrecisionSparse(t *testing.T) {
	ds, err := dataset.GenSparse(dataset.SparseConfig{
		N: 512, M: 1500, Density: 0.03, P: kernels.I8, IdxBits: 16, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg(kernels.I8, kernels.I8)
	cfg.GradBits = 10
	cfg.StepSize = 0.2
	cfg.Epochs = 6
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainLoss[len(res.TrainLoss)-1] >= res.TrainLoss[0]*0.9 {
		t.Error("sparse G10 training did not converge")
	}
}
