// Training equivalence: the numeric demonstration behind the paper's
// Section 3 claim that MBS does not alter the training result. With group
// normalization, serializing a mini-batch into sub-batches with gradient
// accumulation computes exactly the full-batch gradients — and whole
// training runs produce identical parameters.
//
//	go run ./examples/training_equivalence
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func main() {
	// Convolutions execute as im2col + blocked parallel GEMM — the
	// formulation the paper's accelerator runs — and the results are
	// bit-identical for any thread count.
	fmt.Printf("kernel threads: %d\n\n", tensor.Threads())

	// Build two identical GN models (same seed, same init).
	mkModel := func() *nn.Model {
		return nn.BuildSmallCNN(rand.New(rand.NewSource(7)), 3, 16, 8, nn.NormGroup, 8)
	}
	conventional := mkModel()
	serialized := mkModel()

	data := synth.Generate(synth.DefaultConfig())
	train, val := data.Split(0.75)

	optA := &nn.SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
	optB := &nn.SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}

	// Train both for a few epochs: one with full mini-batches, one with
	// MBS sub-batches of 5 (ResNet-50's group-1 sub-batch size in Fig. 5
	// is 3; any size works).
	const batch, subBatch, epochs = 32, 5, 3
	for epoch := 0; epoch < epochs; epoch++ {
		train.Shuffle(int64(42 + epoch))
		var lossA, lossB float64
		steps := 0
		for from := 0; from+batch <= train.X.Shape[0]; from += batch {
			x, labels := train.Batch(from, from+batch)
			lossA += conventional.TrainStepFull(x, labels, optA)
			lossB += serialized.TrainStepMBS(x, labels, subBatch, optB)
			steps++
		}
		fmt.Printf("epoch %d: conventional loss %.6f | MBS loss %.6f\n",
			epoch+1, lossA/float64(steps), lossB/float64(steps))
	}

	// Compare every parameter tensor.
	var maxDiff float64
	pa, pb := conventional.Net.Params(), serialized.Net.Params()
	for i := range pa {
		if d := pa[i].Data.MaxAbsDiff(pb[i].Data); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("\nmax parameter difference after %d epochs: %.3g\n", epochs, maxDiff)
	fmt.Printf("validation accuracy: conventional %.1f%%, MBS %.1f%%\n",
		100*conventional.Evaluate(val.X, val.Labels),
		100*serialized.Evaluate(val.X, val.Labels))

	// Show the negative control: BN breaks under serialization.
	bn := nn.BuildSmallCNN(rand.New(rand.NewSource(7)), 3, 16, 8, nn.NormBatch, 0)
	x := tensor.SliceBatch(train.X, 0, 12)
	labels := train.Labels[:12]
	bn.AccumulateGradsFull(x, labels)
	ref := map[string]*tensor.Tensor{}
	for _, p := range bn.Net.Params() {
		ref[p.Name] = p.Grad.Clone()
	}
	bn.AccumulateGradsMBS(x, labels, 3)
	var bnDiff float64
	for _, p := range bn.Net.Params() {
		if d := p.Grad.MaxAbsDiff(ref[p.Name]); d > bnDiff {
			bnDiff = d
		}
	}
	fmt.Printf("\nnegative control — BN gradient difference under serialization: %.3g\n", bnDiff)
	fmt.Println("(non-zero: batch statistics span the mini-batch, so BN cannot be serialized;")
	fmt.Println(" this is why the paper adapts group normalization for MBS)")
}
