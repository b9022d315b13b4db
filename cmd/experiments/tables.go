package main

import (
	"fmt"

	"buckwild/internal/dmgc"
	"buckwild/internal/machine"
)

func init() {
	register("table1", "DMGC signatures of previous algorithms", runTable1)
	register("table2", "base sequential throughputs (GNPS) per signature, dense and sparse", runTable2)
	register("table3", "summary of optimizations", runTable3)
}

func runTable1(bool) error {
	header("paper", "signature", "classification note")
	for _, r := range dmgc.Table1() {
		fmt.Printf("%-34s%-12s%s\n", r.Paper, r.Signature, r.Note)
	}
	return nil
}

func runTable2(quick bool) error {
	n := 1 << 20
	if quick {
		n = 1 << 16
	}
	denseSigs := dmgc.Table2Signatures(false)
	sparseSigs := dmgc.Table2Signatures(true)
	var points []machine.Workload
	for i := range denseSigs {
		wd, err := machine.SignatureWorkload(denseSigs[i], n, 1)
		if err != nil {
			return err
		}
		ws, err := machine.SignatureWorkload(sparseSigs[i], n, 1)
		if err != nil {
			return err
		}
		points = append(points, wd, ws)
	}
	rs, err := simulateAll(machine.Xeon(), points)
	if err != nil {
		return err
	}
	header("signature", "dense T1", "paper", "sparse T1", "paper")
	for i := range denseSigs {
		pd, _ := dmgc.Table2Base(denseSigs[i])
		ps, _ := dmgc.Table2Base(sparseSigs[i])
		row(denseSigs[i].String(), rs[2*i].GNPS, pd, rs[2*i+1].GNPS, ps)
	}
	fmt.Println("\n(dense signatures shown; sparse column uses the matching D..i..M.. spelling)")
	return nil
}

func runTable3(bool) error {
	header("optimization", "beneficial when?", "stat. eff. loss")
	for _, o := range dmgc.Table3() {
		fmt.Printf("%-20s%-26s%s\n", o.Name, o.Beneficial, o.StatLoss)
	}
	return nil
}
