package nn

import "repro/internal/tensor"

// fp16-weight training (opt-in). When enabled, every Linear layer keeps its
// weights additionally as a tensor.PackedF16 — the same panel-major
// half-precision store the serving path uses — and the training forward
// matmul consumes the packed fp16 weights instead of the fp32 matrix.
// Master weights, gradients and the optimizer state stay fp32: SGD updates
// the fp32 master and the pack is refreshed (in place, allocation-free)
// after each step, so quantization error never accumulates across steps —
// each forward sees round(master), not round(round(...)).
//
// The backward pass intentionally uses the fp32 master weights for dx
// (straight-through estimation): only forward matmuls ride the fp16 store.
// Convolution weights stay fp32 — their im2col GEMM consumes the packed
// *activations*, not the weights, so PackedF16's B-operand layout does not
// apply.
//
// Tolerance: fp16 has an 11-bit significand, so each weight rounds with
// relative error <= 2^-11 ~ 4.9e-4. Forward activations therefore track the
// fp32 path to ~1e-3 relative per layer, and short training runs stay
// within ~2% relative loss of fp32 (asserted by TestFP16TrainingMatchesFP32
// with the documented bounds).

// SetFP16Weights toggles the fp16-weight forward path on every Linear
// layer of the model and (when enabling) packs the current weights.
// Returns the largest absolute rounding error across all packed weights,
// 0 when disabling.
func (m *Model) SetFP16Weights(on bool) float64 {
	m.fp16 = nil
	var maxErr float64
	visitLayers(m.Net, func(l Layer) {
		lin, ok := l.(*Linear)
		if !ok {
			return
		}
		if !on {
			lin.f16w = nil
			return
		}
		if lin.f16w == nil {
			lin.f16w = &tensor.PackedF16{}
		}
		tensor.PackF16Into(lin.f16w, lin.Weight.Data)
		if lin.f16w.MaxErr > maxErr {
			maxErr = lin.f16w.MaxErr
		}
		m.fp16 = append(m.fp16, lin)
	})
	return maxErr
}

// FP16Weights reports whether the fp16 forward path is active.
func (m *Model) FP16Weights() bool { return len(m.fp16) > 0 }

// refreshFP16 re-packs every fp16 layer's weights from the fp32 master
// after an optimizer step. In-place and allocation-free in steady state.
func (m *Model) refreshFP16() {
	for _, lin := range m.fp16 {
		tensor.PackF16Into(lin.f16w, lin.Weight.Data)
	}
}

// visitLayers walks the layer tree depth-first (Sequential and Residual
// are the only containers).
func visitLayers(l Layer, f func(Layer)) {
	f(l)
	switch v := l.(type) {
	case *Sequential:
		for _, c := range v.Layers {
			visitLayers(c, f)
		}
	case *Residual:
		visitLayers(v.Main, f)
		if v.Shortcut != nil {
			visitLayers(v.Shortcut, f)
		}
	}
}
