// One-bit SGD: the explicit-communication corner of the DMGC space. Runs
// synchronous data-parallel SGD with gradients quantized to a single bit
// per value plus the carried-forward error of Seide et al. — the system
// Table 1 classifies as C1s — and shows why the error feedback is the part
// that makes it work.
//
//	go run ./examples/one_bit_sgd
package main

import (
	"fmt"
	"log"

	"buckwild/internal/core"
	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
)

func main() {
	log.SetFlags(0)

	ds, err := dataset.GenDense(dataset.DenseConfig{
		N: 128, M: 4096, P: kernels.F32, Seed: 61,
	})
	if err != nil {
		log.Fatal(err)
	}

	run := func(name string, bits uint, ef bool) {
		res, err := core.TrainSyncDense(core.SyncConfig{
			Problem:       core.Logistic,
			CommBits:      bits,
			Workers:       8,
			ErrorFeedback: ef,
			StepSize:      0.1,
			Epochs:        8,
		}, ds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s loss %.4f -> %.4f over %d rounds\n",
			name, res.TrainLoss[0], res.TrainLoss[len(res.TrainLoss)-1], res.Steps)
	}

	fmt.Println("synchronous data-parallel logistic regression, 8 workers:")
	run("C32 (full-precision comm)", 32, false)
	run("C8 + error feedback", 8, true)
	run("C1s + error feedback", 1, true)
	run("C1s without error feedback", 1, false)
	fmt.Println("\none bit per gradient value suffices — but only because the")
	fmt.Println("full-precision quantization error is carried into the next round,")
	fmt.Println("which is why Table 1 classifies the system as C1s rather than G1.")
}
