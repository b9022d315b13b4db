package buckwild

// Benchmarks, one per table and figure of the paper's evaluation (plus the
// ablations called out in DESIGN.md). Two kinds of measurement appear:
//
//   - host benchmarks exercise the real Go implementations (kernels,
//     quantizers, PRNGs, training epochs, the CNN) so `go test -bench`
//     reports genuine relative costs on the machine running the tests;
//   - simulator benchmarks time the machine/cache/FPGA models that
//     regenerate the paper's hardware-efficiency numbers.
//
// The experiment outputs themselves (the tables/series matching the paper)
// come from `go run ./cmd/experiments all`; see EXPERIMENTS.md.

import (
	"fmt"
	"testing"

	"buckwild/internal/cache"
	"buckwild/internal/core"
	"buckwild/internal/dataset"
	"buckwild/internal/dmgc"
	"buckwild/internal/fixed"
	"buckwild/internal/fpga"
	"buckwild/internal/kernels"
	"buckwild/internal/machine"
	"buckwild/internal/nn"
	"buckwild/internal/prng"
	"buckwild/internal/rff"
	"buckwild/internal/simd"
)

// ---- Table 1 ----

func BenchmarkTable1Classify(b *testing.B) {
	sigs := []string{"D8M8", "D32fi32M32f", "D8M16G32C32", "G10", "C1s"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range sigs {
			if _, err := dmgc.Parse(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- Table 2 ----

func BenchmarkTable2BaseThroughput(b *testing.B) {
	for _, name := range []string{"D8M8", "D16M16", "D32fM32f"} {
		b.Run(name, func(b *testing.B) {
			sig := dmgc.MustParse(name)
			for i := 0; i < b.N; i++ {
				r, err := SimulateThroughputOpts(sig.String(), 1<<16, 1, SimOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.GNPS, "sim-GNPS")
			}
		})
	}
}

// ---- Figure 2 ----

func BenchmarkFig2ModelSizeSweep(b *testing.B) {
	for _, n := range []int{1 << 8, 1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := SimulateThroughputOpts("D8M8", n, 18, SimOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.GNPS, "sim-GNPS")
			}
		})
	}
}

// ---- Figure 3 ----

func BenchmarkFig3ModelValidation(b *testing.B) {
	pm := dmgc.DefaultPerfModel()
	sig := dmgc.MustParse("D8M8")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1 << 8, 1 << 14, 1 << 20} {
			for _, t := range []int{1, 4, 18} {
				if _, err := pm.Throughput(sig, n, t); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// ---- Figure 4: kernel variants on the host ----

func benchDenseStep(b *testing.B, d, m kernels.Prec, v kernels.Variant) {
	const n = 4096
	var q *kernels.Quantizer
	if m != kernels.F32 {
		q = kernels.MustQuantizer(m, kernels.QShared, 8, 1)
	}
	k := kernels.MustDense(d, m, v, q)
	x := kernels.NewVec(d, n)
	w := kernels.NewVec(m, n)
	g := prng.NewXorshift32(3)
	for i := 0; i < n; i++ {
		if d == kernels.F32 {
			x.F32[i] = prng.Float32(g) - 0.5
		} else {
			x.SetRaw(i, int32(int8(g.Uint32())))
		}
	}
	b.SetBytes(int64(kernels.DenseStepBytes(d, n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dot := k.Dot(x, w)
		k.Axpy(dot*1e-4+1e-3, x, w)
	}
}

func BenchmarkFig4aHandOptVsGeneric(b *testing.B) {
	for _, c := range []struct {
		name string
		d, m kernels.Prec
		v    kernels.Variant
	}{
		{"D8M8/generic", kernels.I8, kernels.I8, kernels.Generic},
		{"D8M8/handopt", kernels.I8, kernels.I8, kernels.HandOpt},
		{"D16M16/generic", kernels.I16, kernels.I16, kernels.Generic},
		{"D16M16/handopt", kernels.I16, kernels.I16, kernels.HandOpt},
		{"D32fM32f/handopt", kernels.F32, kernels.F32, kernels.HandOpt},
	} {
		b.Run(c.name, func(b *testing.B) { benchDenseStep(b, c.d, c.m, c.v) })
	}
}

// ---- Figure 5a: rounding strategies (host quantizer throughput) ----

func BenchmarkFig5aRoundingQuality(b *testing.B) {
	for _, kind := range []kernels.QuantKind{
		kernels.QBiased, kernels.QMersenne, kernels.QXorshift, kernels.QShared,
	} {
		b.Run(kind.String(), func(b *testing.B) {
			q := kernels.MustQuantizer(kernels.I8, kind, 8, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Quantize(0.1234)
			}
		})
	}
}

// ---- Figure 5b: raw PRNG throughput ----

func BenchmarkFig5bPRNGThroughput(b *testing.B) {
	b.Run("xorshift128", func(b *testing.B) {
		g := prng.NewXorshift128(1)
		for i := 0; i < b.N; i++ {
			g.Uint32()
		}
	})
	b.Run("xorshift-batch", func(b *testing.B) {
		g := prng.NewBatch(1)
		for i := 0; i < b.N; i++ {
			g.Uint32()
		}
	})
	b.Run("mt19937", func(b *testing.B) {
		g := prng.NewMT19937(1)
		for i := 0; i < b.N; i++ {
			g.Uint32()
		}
	})
}

// ---- Figure 5c: 4-bit vs 8-bit compute streams ----

func BenchmarkFig5c4Bit(b *testing.B) {
	cost := simd.Haswell()
	q8 := kernels.MustQuantizer(kernels.I8, kernels.QShared, 8, 1)
	q4 := kernels.MustQuantizer(kernels.I4, kernels.QShared, 8, 1)
	k8 := kernels.MustDense(kernels.I8, kernels.I8, kernels.HandOpt, q8)
	k4 := kernels.MustDense(kernels.I4, kernels.I4, kernels.NewInsn, q4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c8 := k8.StepStream(1 << 16).Cycles(cost)
		c4 := k4.StepStream(1 << 16).Cycles(cost)
		b.ReportMetric(c8/c4, "speedup-4bit")
	}
}

// ---- Figure 6a/6b: prefetcher in the cache simulator ----

func BenchmarkFig6Prefetch(b *testing.B) {
	for _, pf := range []bool{true, false} {
		b.Run(fmt.Sprintf("prefetch=%v", pf), func(b *testing.B) {
			cfg := cache.XeonConfig()
			cfg.Cores = 1
			cfg.Prefetch = pf
			h, err := cache.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Access(0, uint64(i)*64, false, false)
			}
		})
	}
}

// ---- Figure 6c: obstinate cache ----

func BenchmarkFig6cObstinate(b *testing.B) {
	for _, q := range []float64{0, 0.5, 0.95} {
		b.Run(fmt.Sprintf("q=%v", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := machine.Simulate(machine.Xeon(), machine.Workload{
					D: kernels.I8, M: kernels.I8,
					Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
					ModelSize: 1 << 10, Threads: 18, Prefetch: true,
					Obstinacy: q, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.GNPS, "sim-GNPS")
			}
		})
	}
}

// ---- Figure 6d/6e: mini-batching (host epoch) ----

func BenchmarkFig6dMiniBatch(b *testing.B) {
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 256, M: 512, P: kernels.I8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("B=%d", batch), func(b *testing.B) {
			cfg := core.Config{
				Problem: core.Logistic, D: kernels.I8, M: kernels.I8,
				Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
				Threads: 1, MiniBatch: batch, StepSize: 0.02, Epochs: 1,
				Sharing: core.Sequential, Seed: 2,
			}
			b.SetBytes(int64(ds.Len() * ds.N))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(cfg, ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 6f: obstinate training (host) ----

func BenchmarkFig6fObstinateTraining(b *testing.B) {
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 128, M: 256, P: kernels.I8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []float64{0, 0.95} {
		b.Run(fmt.Sprintf("q=%v", q), func(b *testing.B) {
			cfg := core.Config{
				Problem: core.Logistic, D: kernels.I8, M: kernels.I8,
				Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
				Threads: 2, StepSize: 0.05, Epochs: 1,
				Sharing: core.Racy, ObstinateQ: q, Seed: 2,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(cfg, ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 7a: convolution layer (host forward pass) ----

func BenchmarkFig7aConvLayer(b *testing.B) {
	digits, err := dataset.GenDigits(dataset.DigitsConfig{W: 24, H: 24, Classes: 2, Train: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, bits := range []uint{32, 8} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			var q nn.QuantSpec
			if bits == 32 {
				q = nn.FullPrecision()
			} else {
				q, err = nn.NewQuantSpec(bits, bits, fixed.Unbiased, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			net, err := nn.NewLeNet(nn.LeNetConfig{W: 24, H: 24, Classes: 2, Quant: q, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Predict(digits.Images[i%len(digits.Images)])
			}
		})
	}
}

// ---- Figure 7b: quantized CNN training epoch ----

func BenchmarkFig7bLeNetEpoch(b *testing.B) {
	d, err := dataset.GenDigits(dataset.DigitsConfig{W: 12, H: 12, Classes: 4, Train: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	train, test := d.Split(0.9)
	q, err := nn.NewQuantSpec(8, 8, fixed.Unbiased, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := nn.NewLeNet(nn.LeNetConfig{W: 12, H: 12, Classes: 4, Quant: q, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Train(train, test, 1, 0.03); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figures 7d/7e: random Fourier features ----

func BenchmarkFig7dRFFTransform(b *testing.B) {
	t, err := rff.NewTransform(144, 512, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float32, 144)
	for i := range x {
		x[i] = float32(i) / 144
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.Apply(x); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figures 7c/7f: FPGA design search ----

func BenchmarkFig7fFPGA(b *testing.B) {
	dev := fpga.StratixVGSD8()
	for _, bits := range []uint{32, 8} {
		b.Run(fmt.Sprintf("D%dM%d", bits, bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := fpga.Search(dev, bits, bits, 8192, bits != 32)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.GNPS, "fpga-GNPS")
			}
		})
	}
}

// ---- Ablations from DESIGN.md ----

func BenchmarkAblationLocking(b *testing.B) {
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 256, M: 512, P: kernels.I8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, sharing := range []core.Sharing{core.Racy, core.Locked} {
		b.Run(sharing.String(), func(b *testing.B) {
			cfg := core.Config{
				Problem: core.Logistic, D: kernels.I8, M: kernels.I8,
				Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
				Threads: 4, StepSize: 0.02, Epochs: 1,
				Sharing: sharing, Seed: 2,
			}
			b.SetBytes(int64(ds.Len() * ds.N))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(cfg, ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationIndexPrecision(b *testing.B) {
	cost := simd.Haswell()
	for _, bits := range []uint{8, 16, 32} {
		b.Run(fmt.Sprintf("i%d", bits), func(b *testing.B) {
			q := kernels.MustQuantizer(kernels.I8, kernels.QShared, 8, 1)
			k := kernels.MustSparse(kernels.I8, kernels.I8, kernels.HandOpt, q, bits)
			for i := 0; i < b.N; i++ {
				s := k.StepStream(1 << 12)
				b.ReportMetric(s.Cycles(cost), "stream-cycles")
			}
		})
	}
}

func BenchmarkAblationRounding(b *testing.B) {
	// Host-level cost of the full AXPY under each rounding strategy.
	const n = 4096
	x := kernels.NewVec(kernels.I8, n)
	g := prng.NewXorshift32(1)
	for i := 0; i < n; i++ {
		x.SetRaw(i, int32(int8(g.Uint32())))
	}
	for _, kind := range []kernels.QuantKind{kernels.QBiased, kernels.QMersenne, kernels.QShared} {
		b.Run(kind.String(), func(b *testing.B) {
			q := kernels.MustQuantizer(kernels.I8, kind, 8, 1)
			k := kernels.MustDense(kernels.I8, kernels.I8, kernels.HandOpt, q)
			w := kernels.NewVec(kernels.I8, n)
			b.SetBytes(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Axpy(1e-3, x, w)
			}
		})
	}
}

func BenchmarkEngineSparseEpoch(b *testing.B) {
	ds, err := dataset.GenSparse(dataset.SparseConfig{
		N: 4096, M: 1024, Density: 0.03, P: kernels.I8, IdxBits: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		Problem: core.Logistic, D: kernels.I8, M: kernels.I8,
		Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
		Threads: 2, StepSize: 0.05, Epochs: 1,
		Sharing: core.Racy, Seed: 2,
	}
	b.SetBytes(int64(ds.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(cfg, ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCommQuantization(b *testing.B) {
	// The C-term engine's per-round quantized all-reduce.
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 256, M: 256, P: kernels.F32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, bits := range []uint{32, 8, 1} {
		b.Run(fmt.Sprintf("C%d", bits), func(b *testing.B) {
			cfg := core.SyncConfig{
				Problem: core.Logistic, CommBits: bits,
				Workers: 4, BatchPerWorker: 4, ErrorFeedback: bits < 32,
				StepSize: 0.1, Epochs: 1, Seed: 2,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.TrainSyncDense(cfg, ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
