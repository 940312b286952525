package experiments

import (
	"fmt"
	"io"

	"repro/internal/energy"
	"repro/internal/report"
)

// Table2Row is one accelerator column of the paper's Tab. 2.
type Table2Row struct {
	Name       string
	TechNM     string
	DieAreaMM2 string
	ClockGHz   string
	TOPS       string
	PeakW      string
	BuffersMiB string
}

// Table2 reproduces the accelerator comparison table. The V100/TPU columns
// are the published figures the paper cites; the WaveCore column is
// computed from the area/power model, so unlike the figures it needs no
// Runner or engine.
func Table2(w io.Writer) []Table2Row {
	a := energy.DefaultAreaModel()
	rows := []Table2Row{
		{"V100", "12 FFN", "812", "1.53", "125 (FP16)", "250", "33"},
		{"TPU v1", "28", "<=331", "0.7", "92 (INT8)", "43", "24"},
		{"TPU v2", "N/A", "N/A", "0.7", "45 (FP16)", "N/A", "N/A"},
		{
			"WaveCore", "32",
			fmt.Sprintf("%.1f", a.TotalMM2()),
			"0.7",
			fmt.Sprintf("%.0f (FP16)", a.TOPS()),
			fmt.Sprintf("%.0f", a.PeakPowerWatts()),
			"20 (2x10)",
		},
	}
	if w != nil {
		t := report.NewTable("Tab. 2: accelerator specification comparison",
			"accelerator", "tech (nm)", "die area (mm2)", "clock (GHz)",
			"TOPS/die", "peak power (W)", "on-chip buffers (MiB)")
		for _, r := range rows {
			t.RowF(r.Name, r.TechNM, r.DieAreaMM2, r.ClockGHz, r.TOPS, r.PeakW, r.BuffersMiB)
		}
		t.Render(w)
		fmt.Fprintf(w, "WaveCore breakdown per core: PE array %.2f mm2, global buffer %.2f mm2, vector units %.2f mm2\n",
			a.PEArrayMM2(), a.GlobalBufMM2, a.VectorMM2)
	}
	return rows
}
