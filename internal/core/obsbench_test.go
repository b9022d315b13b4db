package core

import (
	"testing"

	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
)

// BenchmarkObsOverhead is the observability overhead audit: the same
// training run with each obs layer switched on individually, against a
// nil-Observer baseline. The budget (DESIGN.md §15) is ≤5% on the
// training hot path for any single layer at the default sampling rate;
// CI runs this informationally, and the steps/s metric is the number to
// compare across variants.
//
//	go test ./internal/core/ -run xxx -bench BenchmarkObsOverhead -benchtime 2s
func BenchmarkObsOverhead(b *testing.B) {
	const m, threads = 4096, 4
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 32, M: m, P: kernels.I8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	base := func() Config {
		return Config{
			Problem: Logistic, D: kernels.I8, M: kernels.I8,
			Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
			Threads: threads, StepSize: 0.05, Epochs: 1,
			Sharing: Racy, Seed: 7,
		}
	}

	variants := []struct {
		name string
		cfg  func(b *testing.B) Config
	}{
		{"baseline", func(*testing.B) Config { return base() }},
		// Counters only: the Observer exists but installs no hooks; the
		// engine pays the sharded-counter increments and sampling checks.
		{"counters", func(*testing.B) Config {
			cfg := base()
			cfg.Observer = &obs.Observer{}
			return cfg
		}},
		// User hooks at the default sampling rate.
		{"hooks", func(*testing.B) Config {
			cfg := base()
			cfg.Observer = &obs.Observer{Hooks: &countingHooks{}}
			return cfg
		}},
		{"series", func(*testing.B) Config {
			cfg := base()
			cfg.Observer = &obs.Observer{Series: obs.NewSeries(0)}
			return cfg
		}},
		{"tracer", func(*testing.B) Config {
			cfg := base()
			cfg.Observer = &obs.Observer{Tracer: obs.NewTracer(0)}
			return cfg
		}},
		{"flight", func(*testing.B) Config {
			cfg := base()
			cfg.Observer = &obs.Observer{Flight: obs.NewFlightRecorder(0)}
			return cfg
		}},
		{"numhealth", func(*testing.B) Config {
			cfg := base()
			cfg.Observer = &obs.Observer{NumHealth: true}
			return cfg
		}},
		// The continuous profiler samples out-of-band; its cost to the
		// training loop is whatever the capture rounds steal. CPU capture
		// is disabled here — the benchmark harness owns the one allowed
		// CPU profile — so this measures the heap/goroutine/mutex rounds.
		{"profiler", func(b *testing.B) Config {
			p, err := obs.NewProfiler(obs.ProfileConfig{
				Dir: b.TempDir(), Interval: 50e6, CPUDuration: -1, MutexFraction: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			p.Start()
			b.Cleanup(p.Stop)
			return base()
		}},
		// Everything at once: the "run with full observability" cost.
		{"everything", func(*testing.B) Config {
			cfg := base()
			cfg.Observer = &obs.Observer{
				Hooks:     &countingHooks{},
				Series:    obs.NewSeries(0),
				Tracer:    obs.NewTracer(0),
				Flight:    obs.NewFlightRecorder(0),
				NumHealth: true,
			}
			return cfg
		}},
	}

	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := v.cfg(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Train(cfg, ds); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			steps := float64(b.N) * float64(m)
			b.ReportMetric(steps/b.Elapsed().Seconds(), "steps/s")
		})
	}
}
