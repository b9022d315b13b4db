package dmgc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSignatureStringRoundTrip(t *testing.T) {
	cases := []string{
		"D8M8", "D16M16", "D8M16", "D16M8", "D32fM32f",
		"D32fi32M32f", "D8i8M8", "D16i16M16",
		"G18", "G10", "D8M16G32C32", "C1s", "D4M4",
	}
	for _, s := range cases {
		sig, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := sig.String(); got != s {
			t.Errorf("round-trip %q -> %q", s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"D", "DxM8", "D8M", "M8M8", "i32M8", "D8Q8", "D0M8", "D999M8"}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestSignatureAccessors(t *testing.T) {
	s := MustParse("D8i16M16")
	if !s.Sparse() {
		t.Error("should be sparse")
	}
	if s.DatasetBits() != 8 || s.ModelBits() != 16 || s.IndexBits() != 16 {
		t.Error("bits wrong")
	}
	if s.BytesPerElement() != 3 { // 1 byte value + 2 bytes index
		t.Errorf("BytesPerElement = %v", s.BytesPerElement())
	}
	d := MustParse("D8M8")
	if d.Sparse() {
		t.Error("should be dense")
	}
	if d.BytesPerElement() != 1 {
		t.Errorf("dense BytesPerElement = %v", d.BytesPerElement())
	}
	full := MustParse("G10")
	if full.DatasetBits() != 32 || full.ModelBits() != 32 {
		t.Error("absent terms should default to 32")
	}
	if MustParse("D8M8").CSync {
		t.Error("no C term means asynchronous")
	}
	if !MustParse("C1s").CSync {
		t.Error("Cs means synchronous")
	}
}

func TestEmptySignatureString(t *testing.T) {
	var s Signature
	if s.String() != "(full precision)" {
		t.Errorf("empty signature renders %q", s.String())
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("Table 1 has %d rows, want 5", len(rows))
	}
	want := map[string]string{
		"Savich and Moussa [45], 18-bit": "G18",
		"Seide et al. [46]":              "C1s",
		"Courbariaux et al. [9], 10-bit": "G10",
		"Gupta et al. [14]":              "D8M16",
		"De Sa et al. [11], 8-bit":       "D8M8",
	}
	for _, r := range rows {
		if got := r.Signature.String(); got != want[r.Paper] {
			t.Errorf("%s: signature %s, want %s", r.Paper, got, want[r.Paper])
		}
		if r.Note == "" {
			t.Errorf("%s: missing classification note", r.Paper)
		}
	}
}

func TestTable2Base(t *testing.T) {
	if v, err := Table2Base(MustParse("D8M8")); err != nil || v != 3.339 {
		t.Errorf("D8M8 dense T1 = %v, %v", v, err)
	}
	if v, err := Table2Base(MustParse("D8i8M8")); err != nil || v != 0.166 {
		t.Errorf("D8i8M8 sparse T1 = %v, %v", v, err)
	}
	if _, err := Table2Base(MustParse("D4M4")); err == nil {
		t.Error("D4M4 is not in Table 2")
	}
}

func TestTable2DenseOrdering(t *testing.T) {
	// The paper's headline: D8M8 is the fastest dense scheme and
	// achieves roughly linear speedup over D32fM32f.
	d8, _ := Table2Base(MustParse("D8M8"))
	d32, _ := Table2Base(MustParse("D32fM32f"))
	if ratio := d8 / d32; ratio < 3 || ratio > 4.5 {
		t.Errorf("dense D8M8/D32f speedup = %v, paper shows ~3.6 (near-linear 4x)", ratio)
	}
	// Sparse D8i8M8 is fastest sparse but with sub-linear speedup.
	s8, _ := Table2Base(MustParse("D8i8M8"))
	s32, _ := Table2Base(MustParse("D32fi32M32f"))
	if ratio := s8 / s32; ratio < 1.2 || ratio > 2.5 {
		t.Errorf("sparse speedup = %v, paper shows ~1.6 (sub-linear)", ratio)
	}
}

func TestTable2Signatures(t *testing.T) {
	dense := Table2Signatures(false)
	sparse := Table2Signatures(true)
	if len(dense) != 9 || len(sparse) != 9 {
		t.Fatal("Table 2 has 9 rows")
	}
	for i := range dense {
		if dense[i].Sparse() {
			t.Errorf("dense signature %v has index term", dense[i])
		}
		if !sparse[i].Sparse() {
			t.Errorf("sparse signature %v lacks index term", sparse[i])
		}
	}
}

func TestTable3(t *testing.T) {
	rows := Table3()
	if len(rows) != 6 {
		t.Fatalf("Table 3 has %d rows, want 6", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.Beneficial == "" || r.StatLoss == "" {
			t.Errorf("%s: incomplete row", r.Name)
		}
	}
	for _, want := range []string{"Optimized SIMD", "Fast PRNG", "No prefetching", "Mini-batch", "New instructions", "Obstinate cache"} {
		if !names[want] {
			t.Errorf("missing optimization %q", want)
		}
	}
}

func TestPerfModelP(t *testing.T) {
	m := DefaultPerfModel()
	if p := m.P(0); p != 0 {
		t.Errorf("P(0) = %v", p)
	}
	// p increases with model size and approaches PBandwidth.
	prev := -1.0
	for _, n := range []int{256, 1024, 4096, 65536, 1 << 22} {
		p := m.P(n)
		if p <= prev {
			t.Errorf("P not increasing at n=%d", n)
		}
		if p >= m.PBandwidth {
			t.Errorf("P(%d) = %v exceeds asymptote %v", n, p, m.PBandwidth)
		}
		prev = p
	}
	if m.P(1<<26) < 0.9*m.PBandwidth {
		t.Error("P should approach PBandwidth for huge models")
	}
}

func TestPerfModelRegimes(t *testing.T) {
	m := DefaultPerfModel()
	if m.Regime(1<<8) != CommunicationBound {
		t.Error("small models are communication-bound")
	}
	if m.Regime(1<<22) != BandwidthBound {
		t.Error("large models are bandwidth-bound")
	}
	if BandwidthBound.String() != "bandwidth-bound" || CommunicationBound.String() != "communication-bound" {
		t.Error("Regime.String wrong")
	}
}

func TestPerfModelThroughput(t *testing.T) {
	m := DefaultPerfModel()
	sig := MustParse("D8M8")
	t1, _ := m.Throughput(sig, 1<<20, 1)
	if math.Abs(t1-3.339) > 1e-9 {
		t.Errorf("1-thread throughput = %v, want the base 3.339", t1)
	}
	t18, _ := m.Throughput(sig, 1<<20, 18)
	if t18 <= t1 {
		t.Error("threads must increase throughput")
	}
	if t18 > 18*t1 {
		t.Error("superlinear speedup impossible under Amdahl")
	}
	// Communication-bound small model: threads help much less.
	small18, _ := m.Throughput(sig, 256, 18)
	big18, _ := m.Throughput(sig, 1<<22, 18)
	if big18/small18 < 4 {
		t.Errorf("bandwidth-bound should be much faster at 18 threads: %v vs %v", big18, small18)
	}
	for _, c := range []struct{ n, threads int }{{100, 0}, {0, 1}, {-5, 18}} {
		if _, err := m.Throughput(sig, c.n, c.threads); err == nil {
			t.Errorf("n=%d threads=%d should fail", c.n, c.threads)
		}
	}
	if _, err := m.Throughput(MustParse("D4M4"), 100, 1); err == nil {
		t.Error("unknown base throughput should fail")
	}
}

// speedup is equation 3's parallel speedup over one thread at a model
// size, the same for every signature (model property 3).
func speedup(m *PerfModel, modelSize, threads int) float64 {
	p := m.P(modelSize)
	return 1 / ((1 - p) + p/float64(threads))
}

func TestSpeedupMatchesThroughputRatio(t *testing.T) {
	m := DefaultPerfModel()
	for _, sig := range []Signature{MustParse("D16M16"), MustParse("D8M8")} {
		for _, n := range []int{512, 1 << 16, 1 << 24} {
			one, _ := m.Throughput(sig, n, 1)
			many, _ := m.Throughput(sig, n, 8)
			if math.Abs(many/one-speedup(m, n, 8)) > 1e-9 {
				t.Errorf("%v: speedup mismatch at n=%d", sig, n)
			}
		}
	}
}

func TestFitPRecoversParameters(t *testing.T) {
	// Generate speedups from a known model; FitP must recover it.
	truth := &PerfModel{PBandwidth: 0.9, Kappa: 4096}
	sizes := []int{256, 1024, 4096, 16384, 65536, 262144, 1048576}
	speedups := make([]float64, len(sizes))
	for i, n := range sizes {
		speedups[i] = speedup(truth, n, 18)
	}
	pb, k, err := FitP(sizes, speedups, 18)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pb-0.9) > 0.05 {
		t.Errorf("fitted PBandwidth = %v, want ~0.9", pb)
	}
	if k < 2048 || k > 8192 {
		t.Errorf("fitted Kappa = %v, want ~4096", k)
	}
}

func TestFitPErrors(t *testing.T) {
	if _, _, err := FitP(nil, nil, 18); err == nil {
		t.Error("empty fit should fail")
	}
	if _, _, err := FitP([]int{1}, []float64{1, 2}, 18); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, _, err := FitP([]int{1}, []float64{1}, 1); err == nil {
		t.Error("single thread should fail")
	}
}

func TestValidate(t *testing.T) {
	pred := []float64{1, 2, 3, 10}
	meas := []float64{1.2, 2.9, 3.1, 10}
	frac, err := Validate(pred, meas, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 1 {
		t.Errorf("all within 50%%: got %v", frac)
	}
	frac, _ = Validate(pred, meas, 0.05)
	if frac != 0.5 { // only 3 and 10 within 5%
		t.Errorf("frac at 5%% = %v, want 0.5", frac)
	}
	if _, err := Validate([]float64{1}, []float64{}, 0.5); err == nil {
		t.Error("mismatched series should fail")
	}
}

func TestParsePropertyRoundTrip(t *testing.T) {
	// Any signature built from valid terms round-trips through
	// String/Parse.
	check := func(dBits, mBits uint8, dFloat, mFloat, sparse bool) bool {
		db := uint(dBits%32) + 1
		mb := uint(mBits%32) + 1
		sig := Signature{
			D: Term{Present: true, Bits: db, Float: dFloat},
			M: Term{Present: true, Bits: mb, Float: mFloat},
		}
		if sparse {
			sig.Idx = FixedTerm(16)
		}
		parsed, err := Parse(sig.String())
		if err != nil {
			return false
		}
		return parsed == sig
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func statProblem() StatProblem {
	return StatProblem{N: 256, Mu: 0.1, L: 1, M2: 1}
}

func TestStatModelBasics(t *testing.T) {
	p := statProblem()
	pred, err := PredictStatistics(MustParse("D8M8"), p, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Rate <= 0 || pred.Rate >= 1 {
		t.Errorf("Rate = %v, want in (0, 1)", pred.Rate)
	}
	if pred.NoiseBall <= 0 {
		t.Errorf("NoiseBall = %v", pred.NoiseBall)
	}
	sum := pred.GradientTerm + pred.QuantizeTerm + pred.StalenessTerm
	if math.Abs(sum-pred.NoiseBall) > 1e-12*math.Max(1, sum) {
		t.Errorf("terms %v do not sum to ball %v", sum, pred.NoiseBall)
	}
	if steps := pred.StepsTo(100); steps <= 0 {
		t.Errorf("StepsTo(100) = %v", steps)
	}
	if steps := pred.StepsTo(pred.NoiseBall); steps != 0 {
		t.Errorf("already inside the ball: StepsTo = %v", steps)
	}
}

func TestStatModelPrecisionOrdering(t *testing.T) {
	// Lower model precision -> larger quantization term -> larger ball;
	// float model has no quantization term.
	p := statProblem()
	ball := func(sigText string) float64 {
		pred, err := PredictStatistics(MustParse(sigText), p, 0.01, 1)
		if err != nil {
			t.Fatal(err)
		}
		return pred.NoiseBall
	}
	f32 := ball("D32fM32f")
	m16 := ball("D16M16")
	m8 := ball("D8M8")
	m4 := ball("D4M4")
	if !(f32 < m16 && m16 < m8 && m8 < m4) {
		t.Errorf("noise balls not ordered by precision: %v %v %v %v", f32, m16, m8, m4)
	}
	pred, _ := PredictStatistics(MustParse("D32fM32f"), p, 0.01, 1)
	if pred.QuantizeTerm != 0 {
		t.Errorf("float model should have zero quantization term, got %v", pred.QuantizeTerm)
	}
}

func TestStatModelAsynchronyPenalty(t *testing.T) {
	// More threads -> more staleness -> slower certified rate and a
	// smaller maximum stable step.
	p := statProblem()
	one, err := PredictStatistics(MustParse("D8M8"), p, 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := PredictStatistics(MustParse("D8M8"), p, 0.005, 16)
	if err != nil {
		t.Fatal(err)
	}
	if many.Rate <= one.Rate {
		t.Errorf("asynchrony should slow the certified rate: 1t=%v 16t=%v", one.Rate, many.Rate)
	}
	s1, _ := MaxStableStep(p, 1)
	s16, _ := MaxStableStep(p, 16)
	if s16 >= s1 {
		t.Errorf("max stable step should shrink with threads: %v vs %v", s1, s16)
	}
}

func TestStatModelErrors(t *testing.T) {
	p := statProblem()
	if _, err := PredictStatistics(MustParse("D8M8"), StatProblem{}, 0.01, 1); err == nil {
		t.Error("invalid problem should fail")
	}
	if _, err := PredictStatistics(MustParse("D8M8"), p, 0, 1); err == nil {
		t.Error("zero step should fail")
	}
	if _, err := PredictStatistics(MustParse("D8M8"), p, 0.01, 0); err == nil {
		t.Error("zero threads should fail")
	}
	if _, err := PredictStatistics(MustParse("D8M8"), p, 10, 1); err == nil {
		t.Error("unstable step should fail")
	}
	if _, err := MaxStableStep(StatProblem{}, 1); err == nil {
		t.Error("invalid problem should fail")
	}
	if _, err := MaxStableStep(p, 0); err == nil {
		t.Error("zero threads should fail")
	}
}

func TestStatModelMatchesEngineQualitatively(t *testing.T) {
	// The model says the 8-bit ball exceeds the float ball; the engine
	// tests (core) verify the same empirically. Here: the predicted
	// quantize term dominates for tiny steps, mirroring the noise-floor
	// behaviour documented in the README caveats.
	p := statProblem()
	small, err := PredictStatistics(MustParse("D8M8"), p, 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.QuantizeTerm <= small.GradientTerm {
		t.Errorf("at tiny steps quantization should dominate: quant=%v grad=%v",
			small.QuantizeTerm, small.GradientTerm)
	}
}
