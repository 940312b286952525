package infer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// pinnedLogits are SHA-256 digests of the logits the registry Predictors
// return on pinnedInput, at batch 1 (the first sample) and batch 8. They
// were recorded on an AVX2+FMA host and must not change: a change that
// moves serving numerics on purpose updates them and says so in
// CHANGES.md.
var pinnedLogits = map[string]string{
	"smallcnn/b1": "4e3a661fabac8e061b95bde921915969c3681131fa2afeda2cd54705668e96f2",
	"smallcnn/b8": "c4156fc2e54282bede38d98106e24c3690b8f8353edfe4c69bf1a28451533a36",
	"mlp/b1":      "c1c9537a01ef47026d750fbb3b9e09eab6d12b07435c4488a38d119c3737aeca",
	"mlp/b8":      "812b3b347424d8752039fa74046761ceaf9657f51d4223ccab99736221765fa4",
}

// pinnedInput is a seeded [8, InShape...] batch of normal samples.
func pinnedInput(spec ModelSpec) *tensor.Tensor {
	rng := rand.New(rand.NewSource(99))
	x := tensor.New(append([]int{8}, spec.InShape...)...)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// logitsDigest hashes the bits of every logit.
func logitsDigest(y *tensor.Tensor) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range y.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestServingBitsPinned pins the serving numerics across commits: the
// smallcnn and mlp Predictors (fp16 activations, fused conv and packed
// fp16 linear ops) must reproduce digests recorded once, at one and two
// kernel threads and at batch 1 and 8. The tolerance tests in internal/nn
// bound the Predictor against the training forward; this proves its bits
// equal to the commit before.
func TestServingBitsPinned(t *testing.T) {
	if !tensor.SIMDAvailable() {
		t.Skip("digests were recorded with the AVX2+FMA kernels; the portable kernels round differently")
	}
	defer tensor.SetSIMD(tensor.SetSIMD(true))
	defer tensor.SetThreads(tensor.SetThreads(1))

	for _, name := range []string{"smallcnn", "mlp"} {
		spec := MustLookup(name)
		x := pinnedInput(spec)
		for _, threads := range []int{1, 2} {
			tensor.SetThreads(threads)
			p, err := spec.NewPredictor(8)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 8} {
				key := fmt.Sprintf("%s/b%d", name, n)
				got := logitsDigest(p.Forward(tensor.SliceBatch(x, 0, n)))
				if got != pinnedLogits[key] {
					t.Errorf("%s at %d threads: digest %s, pinned %s", key, threads, got, pinnedLogits[key])
				}
			}
		}
	}
}
