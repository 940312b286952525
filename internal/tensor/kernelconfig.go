package tensor

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// KernelConfig is the runtime tuning surface of the blocked GEMM kernels:
// the panel blocking of B and the register micro-tile shape. It is
// process-wide (like Threads) and read once per kernel entry.
//
// Determinism contract: NC and MR/NR only move work between registers and
// cache levels — every output element's additions stay in ascending depth
// order inside fixed KC panels — so changing them can never change a single
// output bit. KC regroups the depth sum (a panel boundary restarts the
// register chain from the stored partial), so changing KC is an
// accuracy-neutral but bit-visible change. The autotuner therefore holds KC
// fixed and searches only NC and the tile shape; KC is still settable
// explicitly for operators who accept a one-time bit change.
type KernelConfig struct {
	// KC is the depth rows of B per panel. Fixed during autotuning.
	KC int `json:"kc"`
	// NC is the columns of B per panel.
	NC int `json:"nc"`
	// MR x NR is the register micro-tile shape (rows x cols of C held in
	// local accumulators). Implemented shapes: 4x4, 2x8, 8x2.
	MR int `json:"mr"`
	NR int `json:"nr"`
}

// String renders the config in the flag syntax ParseKernelConfig accepts.
func (c KernelConfig) String() string {
	return fmt.Sprintf("%dx%d:%dx%d", c.KC, c.NC, c.MR, c.NR)
}

func (c KernelConfig) validate() error {
	if c.KC <= 0 || c.NC <= 0 {
		return fmt.Errorf("tensor: kernel blocking %dx%d: panels must be positive", c.KC, c.NC)
	}
	if !validShape(c.MR, c.NR) {
		return fmt.Errorf("tensor: micro-kernel shape %dx%d not implemented (have %v)", c.MR, c.NR, microShapes)
	}
	return nil
}

// DefaultKernelConfig returns the untuned configuration: the historical
// kcBlock x ncBlock panel (1 MiB of B, L2-resident) and the 4x4 tile.
func DefaultKernelConfig() KernelConfig {
	return KernelConfig{KC: kcBlock, NC: ncBlock, MR: 4, NR: 4}
}

var kernelCfg atomic.Pointer[KernelConfig]

func init() {
	c := DefaultKernelConfig()
	kernelCfg.Store(&c)
}

// CurrentKernelConfig returns the blocking + micro-tile configuration the
// GEMM kernels will read at their next entry.
func CurrentKernelConfig() KernelConfig { return *kernelCfg.Load() }

// SetKernelConfig installs c process-wide and returns the previous
// configuration (handy for defer-restore). Concurrent kernel invocations
// are safe — each reads the pointer once at entry — but callers sequencing
// bit-exact reproductions should not change KC between runs.
func SetKernelConfig(c KernelConfig) (KernelConfig, error) {
	if err := c.validate(); err != nil {
		return CurrentKernelConfig(), err
	}
	return *kernelCfg.Swap(&c), nil
}

// SetBlocking adjusts only the panel blocking, keeping the current
// micro-tile shape. kc or nc <= 0 keeps the current value.
func SetBlocking(kc, nc int) (KernelConfig, error) {
	c := CurrentKernelConfig()
	if kc > 0 {
		c.KC = kc
	}
	if nc > 0 {
		c.NC = nc
	}
	return SetKernelConfig(c)
}

// ParseKernelConfig parses the -gemm-block flag syntax: "KCxNC" or
// "KCxNC:MRxNR" (e.g. "256x512" or "256x1024:2x8"). An empty KC or NC keeps
// the current value ("x1024" tunes NC only); the micro-tile needs both
// fields. Each field must be a whole decimal number: trailing text or a
// second ':' is an error, not ignored, because a misread KC would silently
// change output bits. On error it returns the current configuration.
func ParseKernelConfig(s string) (KernelConfig, error) {
	c := CurrentKernelConfig()
	block, tile, hasTile := strings.Cut(s, ":")
	if hasTile {
		mr, nr, ok := strings.Cut(tile, "x")
		var err1, err2 error
		c.MR, err1 = strconv.Atoi(mr)
		c.NR, err2 = strconv.Atoi(nr)
		if !ok || err1 != nil || err2 != nil {
			return CurrentKernelConfig(), fmt.Errorf("tensor: bad micro-tile %q (want MRxNR)", tile)
		}
	}
	if block != "" {
		kc, nc, ok := strings.Cut(block, "x")
		var err1, err2 error
		c.KC, err1 = atoiOr(kc, c.KC)
		c.NC, err2 = atoiOr(nc, c.NC)
		if !ok || err1 != nil || err2 != nil {
			return CurrentKernelConfig(), fmt.Errorf("tensor: bad blocking %q (want KCxNC)", block)
		}
	}
	if err := c.validate(); err != nil {
		return CurrentKernelConfig(), err
	}
	return c, nil
}

// atoiOr parses s as a decimal integer, or returns def when s is empty.
func atoiOr(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}
