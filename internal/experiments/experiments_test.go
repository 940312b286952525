package experiments

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// seq returns a fresh one-worker runner for the figure tests.
func seq() Runner { return Runner{E: sweep.New(1)} }

func TestFig3SortedAndPlausible(t *testing.T) {
	rows, err := seq().Fig3(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 100 {
		t.Fatalf("ResNet-50 has >100 layers, got %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].InterLayer > rows[i-1].InterLayer {
			t.Fatal("rows not sorted descending")
		}
	}
	// The paper's Fig. 3 peaks around 90 MB per layer at batch 32/16b.
	top := rows[0].InterLayer
	if top < 40<<20 || top > 160<<20 {
		t.Errorf("largest footprint = %d bytes, want tens of MB", top)
	}
	// And only a small fraction fits a 10 MiB buffer (paper: 9.3%).
	var total, fits int64
	for _, r := range rows {
		total += r.InterLayer
		if r.InterLayer <= core.DefaultBufferBytes {
			fits += r.InterLayer
		}
	}
	if frac := float64(fits) / float64(total); frac > 0.35 {
		t.Errorf("reusable fraction = %.2f, want small (paper: 0.093)", frac)
	}
}

func TestFig4GroupsCoverAllBlocks(t *testing.T) {
	rows, err := seq().Fig4(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 20 ResNet-50 blocks", len(rows))
	}
	for i, r := range rows {
		if r.Group < 1 {
			t.Errorf("block %d (%s) not assigned a group", i, r.Block)
		}
		if r.MinIterations < 1 {
			t.Errorf("block %s: bad min iterations", r.Block)
		}
	}
	// The iteration profile peaks in the front half of the network (large
	// early feature maps) and the deepest blocks need the fewest
	// iterations — the down-sampling effect MBS exploits (Fig. 4).
	peak, peakIdx := 0, 0
	for i, r := range rows {
		if r.MinIterations > peak {
			peak, peakIdx = r.MinIterations, i
		}
	}
	if peakIdx > len(rows)/2 {
		t.Errorf("iteration peak at block %d (%s), want in the front half", peakIdx, rows[peakIdx].Block)
	}
	if last := rows[len(rows)-1].MinIterations; last >= peak {
		t.Errorf("deepest block needs %d iterations, peak is %d — no down-sampling benefit", last, peak)
	}
}

func TestFig5RendersBothSchedules(t *testing.T) {
	var b strings.Builder
	scheds, err := seq().Fig5(context.Background(), &b, "resnet50")
	if err != nil {
		t.Fatal(err)
	}
	if len(scheds) != 2 {
		t.Fatalf("schedules = %d, want MBS1+MBS2", len(scheds))
	}
	if !strings.Contains(b.String(), "MBS1") || !strings.Contains(b.String(), "MBS2") {
		t.Error("rendering missing configs")
	}
	if _, err := seq().Fig5(context.Background(), io.Discard, "nonexistent"); err == nil {
		t.Error("unknown network should error")
	}
}

func TestFig10Shapes(t *testing.T) {
	cells, err := seq().Fig10(context.Background(), io.Discard, "resnet50")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(core.Configs) {
		t.Fatalf("cells = %d", len(cells))
	}
	byCfg := map[core.Config]Fig10Cell{}
	for _, c := range cells {
		byCfg[c.Config] = c
	}
	// Paper headline shapes for ResNet-50.
	if s := byCfg[core.MBS2].SpeedupVsBaseline; s < 1.4 || s > 2.3 {
		t.Errorf("MBS2 speedup vs baseline = %.2f, want ~1.8", s)
	}
	if r := byCfg[core.MBS2].TrafficVsArchOpt; r < 0.15 || r > 0.40 {
		t.Errorf("MBS2 traffic vs ArchOpt = %.2f, want ~0.22", r)
	}
	if e := byCfg[core.MBS2].EnergyVsBaseline; e < 0.5 || e > 0.85 {
		t.Errorf("MBS2 energy vs baseline = %.2f, want ~0.70", e)
	}
}

func TestFig11MBSInsensitive(t *testing.T) {
	points, err := seq().Fig11(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var mbs5, mbs40, il5, il40 float64
	for _, p := range points {
		switch {
		case p.Config == core.MBS2 && p.BufferMiB == 5:
			mbs5 = p.StepSeconds
		case p.Config == core.MBS2 && p.BufferMiB == 40:
			mbs40 = p.StepSeconds
		case p.Config == core.IL && p.BufferMiB == 5:
			il5 = p.StepSeconds
		case p.Config == core.IL && p.BufferMiB == 40:
			il40 = p.StepSeconds
		}
	}
	if mbs5 == 0 || il5 == 0 {
		t.Fatal("missing sweep points")
	}
	// MBS2's spread across 5-40 MiB is far smaller than IL's gain, and
	// MBS2 at 5 MiB beats IL at 40 MiB (paper's Fig. 11 headline).
	if mbs40 >= il40 {
		t.Errorf("MBS2@40MiB (%.4f) should beat IL@40MiB (%.4f)", mbs40, il40)
	}
	if mbs5 >= il40 {
		t.Errorf("MBS2@5MiB (%.4f) should beat IL@40MiB (%.4f)", mbs5, il40)
	}
	if (mbs5-mbs40)/mbs40 > (il5-il40)/il40 {
		t.Error("MBS2 should be less buffer sensitive than IL")
	}
}

func TestFig12Breakdown(t *testing.T) {
	points, err := seq().Fig12(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 12 { // 4 configs x 3 memories
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		var sum float64
		for _, v := range p.ByClass {
			sum += v
		}
		if d := sum - p.StepSeconds; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s/%s: breakdown %.5f != step %.5f", p.Config, p.Memory, sum, p.StepSeconds)
		}
		if p.ByClass[sim.ClassConv] <= 0 {
			t.Errorf("%s/%s: zero conv time", p.Config, p.Memory)
		}
	}
}

func TestFig13AllWins(t *testing.T) {
	points, err := seq().Fig13(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 16 { // 4 networks x 4 memories
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Speedup < 1.0 {
			t.Errorf("%s/%s: WaveCore should beat the V100 (%.2f)", p.Network, p.Memory, p.Speedup)
		}
	}
}

func TestFig14AveragesMatchPaperShape(t *testing.T) {
	cells, err := seq().Fig14(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[core.Config]float64{}
	n := map[core.Config]int{}
	for _, c := range cells {
		sums[c.Config] += c.Utilization
		n[c.Config]++
	}
	base := sums[core.Baseline] / float64(n[core.Baseline])
	arch := sums[core.ArchOpt] / float64(n[core.ArchOpt])
	fs := sums[core.MBSFS] / float64(n[core.MBSFS])
	m1 := sums[core.MBS1] / float64(n[core.MBS1])
	if !(base < fs && fs < m1 && m1 <= arch) {
		t.Errorf("utilization ordering violated: base=%.2f fs=%.2f m1=%.2f arch=%.2f",
			base, fs, m1, arch)
	}
	// MBS1 within a few percent of ArchOpt (paper: within 3%).
	if arch-m1 > 0.06 {
		t.Errorf("MBS1 trails ArchOpt by %.1f%%, want < 6%%", (arch-m1)*100)
	}
}

func TestFig6ShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := DefaultFig6Config()
	cfg.Epochs = 4
	cfg.Data.Samples = 128
	res, err := Fig6(context.Background(), io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BN.ValError) != 4 || len(res.GNMBS.ValError) != 4 {
		t.Fatal("missing epochs")
	}
	// Errors must improve from the first epoch for both runs.
	if res.BN.ValError[3] > res.BN.ValError[0]+0.05 {
		t.Errorf("BN error did not improve: %v", res.BN.ValError)
	}
	if res.GNMBS.ValError[3] > res.GNMBS.ValError[0]+0.05 {
		t.Errorf("GN+MBS error did not improve: %v", res.GNMBS.ValError)
	}
	// Normalized pre-activation means stay bounded (Fig. 6 right panels).
	for i := range res.GNMBS.FirstNormMean {
		if m := res.GNMBS.FirstNormMean[i]; m > 2 || m < -2 {
			t.Errorf("GN first-norm mean diverged: %f", m)
		}
	}
}

func TestTable2(t *testing.T) {
	var b strings.Builder
	rows := Table2(&b)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[3].Name != "WaveCore" {
		t.Error("WaveCore row missing")
	}
	if !strings.Contains(b.String(), "534.0") {
		t.Error("die area missing from rendering")
	}
}
