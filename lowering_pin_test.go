package buckwild

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"buckwild/internal/dmgc"
	"buckwild/internal/kernels"
	"buckwild/internal/machine"
)

// pinSignatures is the fixed signature set whose lowering outcomes
// TestSignatureLoweringPinned records: Table 2 dense and sparse, a few
// extra terms, and four signatures the lowering refuses.
func pinSignatures() []string {
	var out []string
	for _, sparse := range []bool{false, true} {
		for _, s := range dmgc.Table2Signatures(sparse) {
			out = append(out, s.String())
		}
	}
	return append(out,
		"D4M4", "D8i8M8", "D8M16G10", "D8M8C8", "D32fM32fC4", "D8M8C16f",
		"D16fM8", "D2M8", "D8M8C2", "G4")
}

// pinWorkload is the Table 2 simulator workload at the pin's size, with
// every default written out.
func pinWorkload(sparse bool, d, m kernels.Prec, idx uint, v kernels.Variant) machine.Workload {
	return machine.Workload{
		Sparse: sparse, D: d, M: m, IdxBits: idx, Variant: v,
		Quant: kernels.QShared, QuantPeriod: 8, ModelSize: 256, Density: 0.03,
		Threads: 2, Prefetch: true, Seed: 1,
	}
}

// TestSignatureLoweringPinned records what every facade lowering makes of
// each signature in pinSignatures: the engine config Train gets, the
// precision (or the error) of each dataset constructor, the cluster wire
// width and the simulator workload. Captured before the lowering moved
// behind kernels.TermPrec and machine.SignatureWorkload; only the
// GenerateDense row of a sparse signature has changed since (it is now
// refused, as Train would refuse the set).
func TestSignatureLoweringPinned(t *testing.T) {
	const (
		n, m  = 8, 16
		dense = kernels.HandOpt
	)
	I4, I8, I16, F32, newInsn := kernels.I4, kernels.I8, kernels.I16, kernels.F32, kernels.NewInsn
	simWant := map[string]machine.Workload{
		"D8M8":        pinWorkload(false, I8, I8, 32, dense),
		"D8M16":       pinWorkload(false, I8, I16, 32, dense),
		"D16M8":       pinWorkload(false, I16, I8, 32, dense),
		"D16M16":      pinWorkload(false, I16, I16, 32, dense),
		"D8M32f":      pinWorkload(false, I8, F32, 32, dense),
		"D16M32f":     pinWorkload(false, I16, F32, 32, dense),
		"D32fM8":      pinWorkload(false, F32, I8, 32, dense),
		"D32fM16":     pinWorkload(false, F32, I16, 32, dense),
		"D32fM32f":    pinWorkload(false, F32, F32, 32, dense),
		"D8i8M8":      pinWorkload(true, I8, I8, 8, dense),
		"D8i8M16":     pinWorkload(true, I8, I16, 8, dense),
		"D16i16M8":    pinWorkload(true, I16, I8, 16, dense),
		"D16i16M16":   pinWorkload(true, I16, I16, 16, dense),
		"D8i8M32f":    pinWorkload(true, I8, F32, 8, dense),
		"D16i16M32f":  pinWorkload(true, I16, F32, 16, dense),
		"D32fi32M8":   pinWorkload(true, F32, I8, 32, dense),
		"D32fi32M16":  pinWorkload(true, F32, I16, 32, dense),
		"D32fi32M32f": pinWorkload(true, F32, F32, 32, dense),
		"D4M4":        pinWorkload(false, I4, I4, 32, newInsn),
	}
	want := pinnedLowering
	dir := t.TempDir()
	svm := filepath.Join(dir, "pin.svm")
	if err := os.WriteFile(svm, []byte("1 1:0.5 3:-0.25\n-1 2:0.75 8:0.125\n1 4:-0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	record := func(probe, sig, outcome string) {
		got = append(got, probe+" "+sig+": "+outcome)
	}
	for _, s := range pinSignatures() {
		parsed, perr := dmgc.Parse(s)
		sparse := perr == nil && parsed.Sparse()

		// The dataset constructors of the signature's own kind.
		var ds Dataset
		if sparse {
			sp, err := GenerateSparse(s, n, m, 0.5, 1)
			if err != nil {
				record("GenerateSparse", s, err.Error())
			} else {
				record("GenerateSparse", s, fmt.Sprintf("%v i%d", sp.Val[0].P, sp.IdxBits))
				ds = sp
			}
			ld, err := LoadLibSVM(svm, s)
			if err != nil {
				record("LoadLibSVM", s, err.Error())
			} else {
				record("LoadLibSVM", s, fmt.Sprintf("%v i%d", ld.Val[0].P, ld.IdxBits))
			}
		} else {
			dd, err := GenerateDense(s, n, m, 1)
			if err != nil {
				record("GenerateDense", s, err.Error())
			} else {
				record("GenerateDense", s, dd.X[0].P.String())
				ds = dd
			}
		}

		// Train's lowering, on the generated set or, when the signature
		// has none, on a full-precision set of its kind.
		if ds == nil {
			var err error
			if sparse {
				ds, err = GenerateSparse("", n, m, 0.5, 1)
			} else {
				ds, err = GenerateDense("", n, m, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		cc, err := Config{Signature: s}.lower(ds)
		if err != nil {
			record("lower", s, err.Error())
		} else {
			idx := uint(0)
			if sp, ok := ds.(*SparseDataset); ok {
				idx = sp.IdxBits
			}
			record("lower", s, fmt.Sprintf("D=%v M=%v G=%d i=%d", cc.D, cc.M, cc.GradBits, idx))
		}

		bits, err := ClusterConfig{}.wireBits(s)
		if err != nil {
			record("wireBits", s, err.Error())
		} else {
			record("wireBits", s, fmt.Sprint(bits))
		}

		// The simulator: SimulateThroughput must simulate exactly the
		// recorded workload.
		res, err := SimulateThroughput(context.Background(), s, 256, 2)
		if err != nil {
			record("SimulateThroughput", s, err.Error())
			continue
		}
		w, ok := simWant[s]
		if !ok {
			t.Errorf("SimulateThroughput(%s) has no pinned workload", s)
			continue
		}
		ref, err := machine.Simulate(machine.Xeon(), w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("SimulateThroughput(%s) does not simulate the pinned workload %+v", s, w)
		}
		record("SimulateThroughput", s, "ok")
	}
	// The mirror cases: a dense signature for a sparse constructor and
	// a sparse one for the dense constructor.
	if sp, err := GenerateSparse("D8M8", n, m, 0.5, 1); err != nil {
		record("GenerateSparse", "D8M8", err.Error())
	} else {
		record("GenerateSparse", "D8M8", sp.Val[0].P.String())
	}
	if dd, err := GenerateDense("D8i16M8", n, m, 1); err != nil {
		record("GenerateDense", "D8i16M8", err.Error())
	} else {
		record("GenerateDense", "D8i16M8", dd.X[0].P.String())
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Errorf("row %d:\n got  %q\n want %q", i, g, w)
			}
		}
	}
}

// pinnedLowering is TestSignatureLoweringPinned's record, one row per
// probe and signature.
var pinnedLowering = []string{
	"GenerateDense D32fM8: 32f",
	"lower D32fM8: D=32f M=8 G=0 i=0",
	"wireBits D32fM8: 32",
	"SimulateThroughput D32fM8: ok",
	"GenerateDense D32fM16: 32f",
	"lower D32fM16: D=32f M=16 G=0 i=0",
	"wireBits D32fM16: 32",
	"SimulateThroughput D32fM16: ok",
	"GenerateDense D32fM32f: 32f",
	"lower D32fM32f: D=32f M=32f G=0 i=0",
	"wireBits D32fM32f: 32",
	"SimulateThroughput D32fM32f: ok",
	"GenerateDense D8M32f: 8",
	"lower D8M32f: D=8 M=32f G=0 i=0",
	"wireBits D8M32f: 32",
	"SimulateThroughput D8M32f: ok",
	"GenerateDense D16M32f: 16",
	"lower D16M32f: D=16 M=32f G=0 i=0",
	"wireBits D16M32f: 32",
	"SimulateThroughput D16M32f: ok",
	"GenerateDense D16M16: 16",
	"lower D16M16: D=16 M=16 G=0 i=0",
	"wireBits D16M16: 32",
	"SimulateThroughput D16M16: ok",
	"GenerateDense D8M16: 8",
	"lower D8M16: D=8 M=16 G=0 i=0",
	"wireBits D8M16: 32",
	"SimulateThroughput D8M16: ok",
	"GenerateDense D16M8: 16",
	"lower D16M8: D=16 M=8 G=0 i=0",
	"wireBits D16M8: 32",
	"SimulateThroughput D16M8: ok",
	"GenerateDense D8M8: 8",
	"lower D8M8: D=8 M=8 G=0 i=0",
	"wireBits D8M8: 32",
	"SimulateThroughput D8M8: ok",
	"GenerateSparse D32fi32M8: 32f i32",
	"LoadLibSVM D32fi32M8: 32f i32",
	"lower D32fi32M8: D=32f M=8 G=0 i=32",
	"wireBits D32fi32M8: 32",
	"SimulateThroughput D32fi32M8: ok",
	"GenerateSparse D32fi32M16: 32f i32",
	"LoadLibSVM D32fi32M16: 32f i32",
	"lower D32fi32M16: D=32f M=16 G=0 i=32",
	"wireBits D32fi32M16: 32",
	"SimulateThroughput D32fi32M16: ok",
	"GenerateSparse D32fi32M32f: 32f i32",
	"LoadLibSVM D32fi32M32f: 32f i32",
	"lower D32fi32M32f: D=32f M=32f G=0 i=32",
	"wireBits D32fi32M32f: 32",
	"SimulateThroughput D32fi32M32f: ok",
	"GenerateSparse D8i8M32f: 8 i8",
	"LoadLibSVM D8i8M32f: 8 i8",
	"lower D8i8M32f: D=8 M=32f G=0 i=8",
	"wireBits D8i8M32f: 32",
	"SimulateThroughput D8i8M32f: ok",
	"GenerateSparse D16i16M32f: 16 i16",
	"LoadLibSVM D16i16M32f: 16 i16",
	"lower D16i16M32f: D=16 M=32f G=0 i=16",
	"wireBits D16i16M32f: 32",
	"SimulateThroughput D16i16M32f: ok",
	"GenerateSparse D16i16M16: 16 i16",
	"LoadLibSVM D16i16M16: 16 i16",
	"lower D16i16M16: D=16 M=16 G=0 i=16",
	"wireBits D16i16M16: 32",
	"SimulateThroughput D16i16M16: ok",
	"GenerateSparse D8i8M16: 8 i8",
	"LoadLibSVM D8i8M16: 8 i8",
	"lower D8i8M16: D=8 M=16 G=0 i=8",
	"wireBits D8i8M16: 32",
	"SimulateThroughput D8i8M16: ok",
	"GenerateSparse D16i16M8: 16 i16",
	"LoadLibSVM D16i16M8: 16 i16",
	"lower D16i16M8: D=16 M=8 G=0 i=16",
	"wireBits D16i16M8: 32",
	"SimulateThroughput D16i16M8: ok",
	"GenerateSparse D8i8M8: 8 i8",
	"LoadLibSVM D8i8M8: 8 i8",
	"lower D8i8M8: D=8 M=8 G=0 i=8",
	"wireBits D8i8M8: 32",
	"SimulateThroughput D8i8M8: ok",
	"GenerateDense D4M4: 4",
	"lower D4M4: D=4 M=4 G=0 i=0",
	"wireBits D4M4: 32",
	"SimulateThroughput D4M4: ok",
	"GenerateSparse D8i8M8: 8 i8",
	"LoadLibSVM D8i8M8: 8 i8",
	"lower D8i8M8: D=8 M=8 G=0 i=8",
	"wireBits D8i8M8: 32",
	"SimulateThroughput D8i8M8: ok",
	"GenerateDense D8M16G10: 8",
	"lower D8M16G10: D=8 M=16 G=10 i=0",
	"wireBits D8M16G10: 32",
	"SimulateThroughput D8M16G10: buckwild: D8M16G10: the simulator has no G term (gradients are full precision in its cost model)",
	"GenerateDense D8M8C8: 8",
	"lower D8M8C8: D=8 M=8 G=0 i=0",
	"wireBits D8M8C8: 8",
	"SimulateThroughput D8M8C8: buckwild: D8M8C8: the simulator has no C term; communication is priced by the cluster tier",
	"GenerateDense D32fM32fC4: 32f",
	"lower D32fM32fC4: D=32f M=32f G=0 i=0",
	"wireBits D32fM32fC4: 4",
	"SimulateThroughput D32fM32fC4: buckwild: D32fM32fC4: the simulator has no C term; communication is priced by the cluster tier",
	"GenerateDense D8M8C16f: 8",
	"lower D8M8C16f: D=8 M=8 G=0 i=0",
	"wireBits D8M8C16f: buckwild: only 32-bit float storage is supported, got 16f",
	"SimulateThroughput D8M8C16f: buckwild: D8M8C16f: the simulator has no C term; communication is priced by the cluster tier",
	"GenerateDense D16fM8: buckwild: only 32-bit float storage is supported, got 16f",
	"lower D16fM8: buckwild: only 32-bit float storage is supported, got 16f",
	"wireBits D16fM8: 32",
	"SimulateThroughput D16fM8: buckwild: only 32-bit float storage is supported, got 16f",
	"GenerateDense D2M8: buckwild: unsupported precision 2 (use 4, 8, 16 or 32f)",
	"lower D2M8: buckwild: unsupported precision 2 (use 4, 8, 16 or 32f)",
	"wireBits D2M8: 32",
	"SimulateThroughput D2M8: buckwild: unsupported precision 2 (use 4, 8, 16 or 32f)",
	"GenerateDense D8M8C2: 8",
	"lower D8M8C2: D=8 M=8 G=0 i=0",
	"wireBits D8M8C2: buckwild: signature communication precision 2 not supported on the cluster wire (use 4, 8, 16 or 32)",
	"SimulateThroughput D8M8C2: buckwild: D8M8C2: the simulator has no C term; communication is priced by the cluster tier",
	"GenerateDense G4: 32f",
	"lower G4: D=32f M=32f G=4 i=0",
	"wireBits G4: 32",
	"SimulateThroughput G4: buckwild: G4: the simulator has no G term (gradients are full precision in its cost model)",
	"GenerateSparse D8M8: buckwild: signature D8M8 has no index term",
	"GenerateDense D8i16M8: buckwild: signature D8i16M8 sparsity does not match the dataset",
}
