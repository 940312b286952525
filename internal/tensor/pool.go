package tensor

// MaxPool2DInto computes max pooling with a k x k window and the given
// stride into preallocated out and arg buffers; arg receives each output's
// argmax index (into x's flat data) for the backward pass.
func MaxPool2DInto(out *Tensor, arg []int, x *Tensor, k, stride int) {
	n, c := x.Shape[0], x.Shape[1]
	oh, ow := out.Shape[2], out.Shape[3]
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := x.At4(ni, ci, oy*stride, ox*stride)
					bi := x.idx4(ni, ci, oy*stride, ox*stride)
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							idx := x.idx4(ni, ci, oy*stride+ky, ox*stride+kx)
							if v := x.Data[idx]; v > best {
								best, bi = v, idx
							}
						}
					}
					out.Data[oi] = best
					arg[oi] = bi
					oi++
				}
			}
		}
	}
}

// MaxPool2DBackwardInto scatters dy through the argmax map into a
// preallocated dx (overwritten).
func MaxPool2DBackwardInto(dx, dy *Tensor, arg []int) {
	dx.Zero()
	for i, g := range dy.Data {
		dx.Data[arg[i]] += g
	}
}

// GlobalAvgPoolInto reduces [N,C,H,W] into a preallocated [N,C] out tensor.
func GlobalAvgPoolInto(out, x *Tensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	inv := 1.0 / float64(h*w)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			var s float64
			for hi := 0; hi < h; hi++ {
				for wi := 0; wi < w; wi++ {
					s += x.At4(ni, ci, hi, wi)
				}
			}
			out.Data[ni*c+ci] = s * inv
		}
	}
}

// GlobalAvgPoolBackwardInto broadcasts dy [N,C] into a preallocated dx
// (fully overwritten).
func GlobalAvgPoolBackwardInto(dx, dy *Tensor) {
	n, c, h, w := dx.Shape[0], dx.Shape[1], dx.Shape[2], dx.Shape[3]
	inv := 1.0 / float64(h*w)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			g := dy.Data[ni*c+ci] * inv
			for hi := 0; hi < h; hi++ {
				for wi := 0; wi < w; wi++ {
					dx.Set4(ni, ci, hi, wi, g)
				}
			}
		}
	}
}
