//go:build !amd64 || !gc

package f16

// Portable build: useF16C stays false, so the vector hooks below are
// unreachable and EncodeSlice/DecodeSlice run their scalar loops.
var useF16C = false

func encodeVector(dst []F16, src []float64) int {
	panic("f16: encodeVector without F16C")
}

func decodeVector(dst []float64, src []F16) int {
	panic("f16: decodeVector without F16C")
}
