package tensor

import (
	"math/bits"
	"sync"
)

// The scratch arena hands out float64 slabs for kernel temporaries (im2col
// matrices and the conv backward's col2im staging). Slabs are bucketed by
// power-of-two capacity and recycled through sync.Pools, so a steady-state
// training loop — which requests the same handful of sizes every step —
// performs no large allocations after warm-up. The *slab container itself is
// pooled too, keeping Get/Put free of per-call boxing allocations.

type slab struct {
	f []float64
}

// slabPools[b] holds slabs of capacity exactly 1<<b.
var slabPools [40]sync.Pool

func slabBucket(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// getSlab returns a slab whose buffer has length n. Contents are arbitrary;
// callers either overwrite fully or zero the regions they accumulate into.
func getSlab(n int) *slab {
	b := slabBucket(n)
	if v := slabPools[b].Get(); v != nil {
		s := v.(*slab)
		s.f = s.f[:n]
		return s
	}
	return &slab{f: make([]float64, n, 1<<b)}
}

// put returns the slab to its pool.
func (s *slab) put() {
	slabPools[slabBucket(cap(s.f))].Put(s)
}

// zeroFloats clears a slice (compiles to a memclr).
func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}
