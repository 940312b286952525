package tensor

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
