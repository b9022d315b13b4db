package main

import (
	"fmt"
	"testing"

	"buckwild/internal/dmgc"
	"buckwild/internal/machine"
)

// workloadOf is the experiments' signature-to-workload lowering under
// test.
func workloadOf(sig dmgc.Signature) (machine.Workload, error) {
	return machine.SignatureWorkload(sig, 4096, 3)
}

// TestWorkloadPinned records the simulator workload every experiment
// signature lowers to, field by field. Captured before the experiments'
// own copy of the lowering gave way to machine.SignatureWorkload.
func TestWorkloadPinned(t *testing.T) {
	want := map[string]string{
		"D32fM8":      "{Sparse:false D:32f M:8 IdxBits:32 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D32fM16":     "{Sparse:false D:32f M:16 IdxBits:32 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D32fM32f":    "{Sparse:false D:32f M:32f IdxBits:32 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D8M32f":      "{Sparse:false D:8 M:32f IdxBits:32 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D16M32f":     "{Sparse:false D:16 M:32f IdxBits:32 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D16M16":      "{Sparse:false D:16 M:16 IdxBits:32 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D8M16":       "{Sparse:false D:8 M:16 IdxBits:32 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D16M8":       "{Sparse:false D:16 M:8 IdxBits:32 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D8M8":        "{Sparse:false D:8 M:8 IdxBits:32 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D32fi32M8":   "{Sparse:true D:32f M:8 IdxBits:32 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D32fi32M16":  "{Sparse:true D:32f M:16 IdxBits:32 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D32fi32M32f": "{Sparse:true D:32f M:32f IdxBits:32 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D8i8M32f":    "{Sparse:true D:8 M:32f IdxBits:8 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D16i16M32f":  "{Sparse:true D:16 M:32f IdxBits:16 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D16i16M16":   "{Sparse:true D:16 M:16 IdxBits:16 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D8i8M16":     "{Sparse:true D:8 M:16 IdxBits:8 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D16i16M8":    "{Sparse:true D:16 M:8 IdxBits:16 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D8i8M8":      "{Sparse:true D:8 M:8 IdxBits:8 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D8i16M8":     "{Sparse:true D:8 M:8 IdxBits:16 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D8i32M8":     "{Sparse:true D:8 M:8 IdxBits:32 Variant:handopt Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D4M4":        "{Sparse:false D:4 M:4 IdxBits:32 Variant:newinsn Quant:unbiased-shared QuantPeriod:8 ModelSize:4096 Density:0.03 Threads:3 MiniBatch:0 Sockets:0 Prefetch:true Obstinacy:0 Seed:1}",
		"D8M16G10":    "machine: D8M16G10: the simulator has no G term (gradients are full precision in its cost model)",
		"D8M8C8":      "machine: D8M8C8: the simulator has no C term; communication is priced by the cluster tier",
		"D32fM32fC4":  "machine: D32fM32fC4: the simulator has no C term; communication is priced by the cluster tier",
		"D8M8C16f":    "machine: D8M8C16f: the simulator has no C term; communication is priced by the cluster tier",
		"D8M8C2":      "machine: D8M8C2: the simulator has no C term; communication is priced by the cluster tier",
		"G4":          "machine: G4: the simulator has no G term (gradients are full precision in its cost model)",
	}
	var sigs []string
	for _, sparse := range []bool{false, true} {
		for _, s := range dmgc.Table2Signatures(sparse) {
			sigs = append(sigs, s.String())
		}
	}
	sigs = append(sigs, "D8i16M8", "D8i32M8", "D4M4", "D8M16G10", "D8M8C8",
		"D32fM32fC4", "D8M8C16f", "D8M8C2", "G4")
	for _, s := range sigs {
		w, err := workloadOf(dmgc.MustParse(s))
		got := fmt.Sprintf("%+v", w)
		if err != nil {
			got = err.Error()
		}
		if got != want[s] {
			t.Errorf("%s:\n got  %q\n want %q", s, got, want[s])
		}
	}
}
