package tensor

import (
	"fmt"
	"time"
)

// The GEMM kernels walk B in panels of kcBlock depth rows by ncBlock
// columns: 1 MiB of B (256*512*8 B), sized to stay L2-resident across the
// whole row loop while rows of A and C stream past it.
const (
	kcBlock = 256 // rows of B (depth) per panel
	ncBlock = 512 // columns of B per panel
)

// KernelConfig is the panel blocking of the blocked GEMM kernels.
//
// Determinism contract: NC only moves work between cache levels — every
// output element's additions stay in ascending depth order inside fixed KC
// panels — so it never changes an output bit. KC regroups the depth sum (a
// panel boundary restarts the register chain from the stored partial), so
// a different KC is accuracy-neutral but bit-visible.
type KernelConfig struct {
	KC int // depth rows of B per panel
	NC int // columns of B per panel
}

// String renders the config as KCxNC.
func (c KernelConfig) String() string { return fmt.Sprintf("%dx%d", c.KC, c.NC) }

// kernelCfg is the blocking every kernel reads at entry. Only the tests
// change it, shrinking the panels to reach the remainder paths.
var kernelCfg = KernelConfig{KC: kcBlock, NC: ncBlock}

// CurrentKernelConfig returns the blocking the GEMM kernels run under.
func CurrentKernelConfig() KernelConfig { return kernelCfg }

// AutotuneResult is what Autotune reports: the time spent tuning, always 0.
type AutotuneResult struct {
	Elapsed time.Duration
}

// Autotune measures and installs nothing: the kernel configuration is
// fixed (CurrentKernelConfig), so the result's Elapsed is 0. It remains
// only because the benchmark module still calls it and records Elapsed as
// tensor.autotune_ms; once it stops, Autotune and AutotuneResult go.
func Autotune() *AutotuneResult { return &AutotuneResult{} }
