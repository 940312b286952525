package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/models"
	"repro/internal/sweep"
)

// ParamError reports invalid scenario parameters: the caller's input is at
// fault, as opposed to an execution failure. The HTTP layers map it to 422
// Unprocessable Entity.
type ParamError struct {
	Scenario string
	Msg      string
}

func (e *ParamError) Error() string { return e.Msg }

// paramErrf builds a ParamError for the named scenario.
func paramErrf(scenario, format string, args ...any) *ParamError {
	return &ParamError{Scenario: scenario, Msg: fmt.Sprintf(format, args...)}
}

// Params carries scenario arguments as name -> value strings; Scenario.Run
// validates names and types against the scenario's specs and fills defaults.
type Params map[string]string

// Int parses the named parameter as an integer.
func (p Params) Int(name string) (int, error) {
	v, err := strconv.Atoi(p[name])
	if err != nil {
		return 0, fmt.Errorf("param %s: %q is not an integer", name, p[name])
	}
	return v, nil
}

// List splits the named comma-separated parameter, dropping empty entries.
func (p Params) List(name string) []string {
	var out []string
	for _, v := range strings.Split(p[name], ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// Scenario is one named, parameterized experiment: every figure, table and
// custom sweep of the evaluation is a registry entry producing structured
// rows. Run renders the paper-style text to w when w is non-nil and always
// returns the structured series; JSONValue wraps that series into the exact
// value `mbsim -json` marshals, which the mbsd service reuses so HTTP
// responses are byte-identical to the CLI.
type Scenario struct {
	Name        string
	Description string
	Params      []api.ScenarioParam

	// bareJSON scenarios marshal their data unwrapped ("all" is already a
	// section map; "single" keeps its historical three-key shape).
	bareJSON bool
	run      func(ctx context.Context, r Runner, p Params, w io.Writer) (any, error)
}

// Run validates p against the scenario's parameter specs, fills defaults,
// and executes the scenario on r, rendering text to w when non-nil. The
// context flows into the sweep engine: cancelling it aborts the run promptly
// (parameter errors are *ParamError; cancellations return ctx's error).
func (s *Scenario) Run(ctx context.Context, r Runner, p Params, w io.Writer) (any, error) {
	resolved, err := s.resolve(p)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, r, resolved, w)
}

// Validate checks p against the scenario's parameter specs without running
// anything — the submit path of the async jobs API vets requests up front so
// invalid jobs are rejected synchronously.
func (s *Scenario) Validate(p Params) error {
	_, err := s.resolve(p)
	return err
}

// JSONValue returns the value to marshal for -json / HTTP responses.
func (s *Scenario) JSONValue(data any) any {
	if s.bareJSON {
		return data
	}
	return map[string]any{s.Name: data}
}

// Info returns the scenario's serializable description.
func (s *Scenario) Info() api.ScenarioInfo {
	return api.ScenarioInfo{Name: s.Name, Description: s.Description, Params: s.Params}
}

// resolve applies defaults and rejects unknown names, int-typed values that
// are not integers or lie outside [0, intMax], and values outside a spec's
// enum — untrusted HTTP input is fully validated here, before any run
// function executes.
func (s *Scenario) resolve(p Params) (Params, error) {
	out := make(Params, len(s.Params))
	for _, spec := range s.Params {
		out[spec.Name] = spec.Default
	}
	for k, v := range p {
		spec := s.spec(k)
		if spec == nil {
			return nil, paramErrf(s.Name, "scenario %s: unknown param %q (have: %s)",
				s.Name, k, strings.Join(s.paramNames(), ", "))
		}
		if v == "" {
			continue // empty means "use the default" (e.g. -param network=)
		}
		if spec.Type == "int" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, paramErrf(s.Name, "scenario %s: param %s: %q is not an integer", s.Name, k, v)
			}
			if max := intMax[k]; n < 0 || int64(n) > max {
				return nil, paramErrf(s.Name, "scenario %s: param %s: %d is out of range [0, %d]", s.Name, k, n, max)
			}
		}
		if len(spec.Enum) > 0 {
			values := []string{v}
			if spec.Type == "list" {
				if values = (Params{spec.Name: v}).List(spec.Name); len(values) == 0 {
					continue // separators only: as empty, the default
				}
			}
			for i, val := range values {
				canon, ok := enumValue(spec.Enum, val)
				if !ok {
					return nil, paramErrf(s.Name, "scenario %s: param %s: unknown value %q (have %s)",
						s.Name, k, val, strings.Join(spec.Enum, ", "))
				}
				values[i] = canon
			}
			v = strings.Join(values, ",")
		}
		out[k] = v
	}
	return out, nil
}

// intMax bounds the int-typed params, each a size whose zero selects a
// default. buffer counts MiB, and beyond the largest count whose bytes fit
// an int64 the bytes wrap (2^44 MiB became 0, the 10 MiB default). The
// simulator's work grows linearly with batch: on a 2-core x86 host, 10^7
// took 4.5 s and 110 MB, and 10^12 ran the process out of memory.
var intMax = map[string]int64{"batch": 1 << 16, "buffer": math.MaxInt64 >> 20}

// enumValue matches v case-insensitively and returns the enum's own
// spelling, which the resolved params carry: some run-time lookups
// (memsys.ByName, the models registry) are case-sensitive.
func enumValue(enum []string, v string) (string, bool) {
	for _, e := range enum {
		if strings.EqualFold(e, v) {
			return e, true
		}
	}
	return "", false
}

func (s *Scenario) spec(name string) *api.ScenarioParam {
	for i := range s.Params {
		if s.Params[i].Name == name {
			return &s.Params[i]
		}
	}
	return nil
}

func (s *Scenario) paramNames() []string {
	names := make([]string, len(s.Params))
	for i, spec := range s.Params {
		names[i] = spec.Name
	}
	return names
}

// configNames lists the execution configurations for enum specs.
func configNames() []string {
	names := make([]string, len(core.Configs))
	for i, c := range core.Configs {
		names[i] = c.String()
	}
	return names
}

// memoryNames lists the DRAM technologies for enum specs.
func memoryNames() []string {
	names := make([]string, len(memsys.Memories))
	for i, m := range memsys.Memories {
		names[i] = m.Name
	}
	return names
}

// groupings lists core's group-formation modes in enum order.
var groupings = []core.GroupingMode{core.GroupGreedy, core.GroupOptimal, core.GroupNone}

// groupingNames lists the group-formation modes for enum specs.
func groupingNames() []string {
	names := make([]string, len(groupings))
	for i, g := range groupings {
		names[i] = g.String()
	}
	return names
}

// cellParams are the fixed-value specs of one simulator cell, shared by the
// single and sweep scenarios; schedule takes all but memory.
func cellParams(defaultNetwork string) []api.ScenarioParam {
	return []api.ScenarioParam{
		{Name: "network", Type: "string", Default: defaultNetwork,
			Description: "network to simulate", Enum: models.Names()},
		{Name: "config", Type: "string", Default: "MBS2",
			Description: "execution configuration", Enum: configNames()},
		{Name: "memory", Type: "string", Default: "HBM2",
			Description: "DRAM technology", Enum: memoryNames()},
		{Name: "batch", Type: "int", Default: "0",
			Description: "per-core mini-batch (0 = network default)"},
		{Name: "buffer", Type: "int", Default: "0",
			Description: "global buffer MiB (0 = 10 MiB default)"},
	}
}

// cellFromParams builds the sweep cell a scenario's resolved cell params
// describe. Without a memory param (schedule plans, it does not simulate)
// the cell keeps the zero DRAM, which selects HBM2.
func cellFromParams(p Params) (sweep.Cell, error) {
	var cfg core.Config
	if err := cfg.UnmarshalText([]byte(p["config"])); err != nil {
		return sweep.Cell{}, err
	}
	var mem memsys.DRAM
	if name, ok := p["memory"]; ok {
		var err error
		if mem, err = memsys.ByName(name); err != nil {
			return sweep.Cell{}, err
		}
	}
	batch, err := p.Int("batch")
	if err != nil {
		return sweep.Cell{}, err
	}
	bufMiB, err := p.Int("buffer")
	if err != nil {
		return sweep.Cell{}, err
	}
	return sweep.Cell{
		Network: p["network"], Config: cfg, Memory: mem,
		Batch: batch, BufferBytes: int64(bufMiB) << 20,
	}, nil
}

// suiteNames is the "all" scenario's section order (paper order); the golden
// "all" output and the bare JSON section map are both derived from it.
var suiteNames = []string{"fig10", "fig11", "fig12", "fig13", "fig14", "table2"}

// registry is the ordered scenario list. Order is presentation order for
// -list and /v1/scenarios. It is populated in init (the "all" scenario's
// closure calls Lookup, which a composite-literal initializer would report
// as an initialization cycle).
var registry []*Scenario

func init() {
	registry = []*Scenario{
		{
			Name:        "fig3",
			Description: "ResNet-50 per-layer footprint profile (Fig. 3)",
			run: func(ctx context.Context, r Runner, p Params, w io.Writer) (any, error) {
				return r.Fig3(ctx, w)
			},
		},
		{
			Name:        "fig4",
			Description: "ResNet-50 per-block data, minimal iterations, MBS grouping (Fig. 4)",
			run: func(ctx context.Context, r Runner, p Params, w io.Writer) (any, error) {
				return r.Fig4(ctx, w)
			},
		},
		{
			Name:        "fig5",
			Description: "concrete MBS1/MBS2 schedules for one network (Fig. 5)",
			Params: []api.ScenarioParam{{Name: "network", Type: "string", Default: "resnet50",
				Description: "network to schedule", Enum: models.Names()}},
			run: func(ctx context.Context, r Runner, p Params, w io.Writer) (any, error) {
				scheds, err := r.Fig5(ctx, w, p["network"])
				if err != nil {
					return nil, err
				}
				// Schedules render as strings for JSON: the struct graph is
				// cyclic (Schedule -> Network) and the text form is the figure.
				out := make([]string, len(scheds))
				for i, s := range scheds {
					out[i] = s.String()
				}
				return out, nil
			},
		},
		{
			Name:        "fig10",
			Description: "per-step time, energy and DRAM traffic across configurations (Fig. 10)",
			Params: []api.ScenarioParam{{Name: "networks", Type: "list", Default: "",
				Description: "comma-separated networks (empty = all six)", Enum: models.Names()}},
			run: func(ctx context.Context, r Runner, p Params, w io.Writer) (any, error) {
				return r.Fig10(ctx, w, p.List("networks")...)
			},
		},
		{
			Name:        "fig11",
			Description: "ResNet-50 sensitivity to global buffer size (Fig. 11)",
			run: func(ctx context.Context, r Runner, p Params, w io.Writer) (any, error) {
				return r.Fig11(ctx, w)
			},
		},
		{
			Name:        "fig12",
			Description: "ResNet-50 memory-type sensitivity and time breakdown (Fig. 12)",
			run: func(ctx context.Context, r Runner, p Params, w io.Writer) (any, error) {
				return r.Fig12(ctx, w)
			},
		},
		{
			Name:        "fig13",
			Description: "NVIDIA V100 vs WaveCore+MBS2 per-step training time (Fig. 13)",
			run: func(ctx context.Context, r Runner, p Params, w io.Writer) (any, error) {
				return r.Fig13(ctx, w)
			},
		},
		{
			Name:        "fig14",
			Description: "systolic array utilization with unlimited DRAM bandwidth (Fig. 14)",
			run: func(ctx context.Context, r Runner, p Params, w io.Writer) (any, error) {
				return r.Fig14(ctx, w)
			},
		},
		{
			Name:        "table2",
			Description: "accelerator specification comparison (Tab. 2)",
			run: func(ctx context.Context, r Runner, p Params, w io.Writer) (any, error) {
				return Table2(w), nil
			},
		},
		{
			Name:        "all",
			Description: "the full simulator suite: Figs. 10-14 and Tab. 2 in paper order",
			bareJSON:    true,
			run: func(ctx context.Context, r Runner, p Params, w io.Writer) (any, error) {
				out := make(map[string]any, len(suiteNames))
				for i, name := range suiteNames {
					s, _ := Lookup(name)
					if w != nil && i > 0 {
						fmt.Fprintln(w)
					}
					data, err := s.Run(ctx, r, nil, w)
					if err != nil {
						return nil, err
					}
					out[name] = data
				}
				return out, nil
			},
		},
		{
			Name:        "single",
			Description: "simulate one (network, config, memory, batch, buffer) cell",
			Params:      cellParams("resnet50"),
			bareJSON:    true,
			run: func(ctx context.Context, r Runner, p Params, w io.Writer) (any, error) {
				cell, err := cellFromParams(p)
				if err != nil {
					return nil, err
				}
				res, err := r.E.Simulate(ctx, cell)
				if err != nil {
					return nil, err
				}
				if w != nil {
					fmt.Fprintln(w, res)
					fmt.Fprintln(w, "breakdown:", res.BreakdownString())
					fmt.Fprintf(w, "energy: DRAM %.3f J, GB %.3f J, compute %.3f J, vector %.3f J, static %.3f J (DRAM share %.1f%%)\n",
						res.Energy.DRAM, res.Energy.GB, res.Energy.Compute, res.Energy.Vector, res.Energy.Static,
						100*res.Energy.DRAMFraction())
				}
				return map[string]any{
					"result":                  sweep.RowOf(cell, res),
					"time_by_class_seconds":   res.TimeByClass,
					"energy_breakdown_joules": res.Energy,
				}, nil
			},
		},
		{
			Name:        "sweep",
			Description: "custom grid over any subset of the experiment axes",
			Params: append([]api.ScenarioParam{{Name: "axes", Type: "list", Default: "buffer",
				Description: "axes to sweep", Enum: []string{"network", "config", "memory", "batch", "buffer"}}},
				cellParams("resnet50")...),
			run: func(ctx context.Context, r Runner, p Params, w io.Writer) (any, error) {
				cells, axes, err := sweepGrid(p)
				if err != nil {
					return nil, err
				}
				results, err := r.E.SimulateGrid(ctx, cells)
				if err != nil {
					return nil, err
				}
				rows := sweep.Rows(cells, results)
				if w != nil {
					sweep.RenderRows(w, fmt.Sprintf("Sweep over %s (%d cells)",
						strings.Join(axes, ","), len(cells)), rows)
				}
				return rows, nil
			},
		},
		{
			Name:        "schedule",
			Description: "MBS schedule and DRAM traffic ledger for one network and configuration",
			Params: append(slices.DeleteFunc(cellParams("resnet50"), func(p api.ScenarioParam) bool { return p.Name == "memory" }),
				api.ScenarioParam{Name: "grouping", Type: "string", Default: "greedy",
					Description: "group formation", Enum: groupingNames()}),
			run: func(ctx context.Context, r Runner, p Params, w io.Writer) (any, error) {
				cell, err := cellFromParams(p)
				if err != nil {
					return nil, err
				}
				opts := cell.Options()
				for _, g := range groupings {
					if g.String() == p["grouping"] {
						opts.Grouping = g
					}
				}
				s, err := r.E.Plan(ctx, cell.Network, opts)
				if err != nil {
					return nil, err
				}
				tr, err := r.E.Traffic(ctx, cell.Network, opts)
				if err != nil {
					return nil, err
				}
				// As in fig5, JSON carries the texts: the schedule's struct
				// graph is cyclic (Schedule -> Network).
				sched, traffic := s.String(), tr.String()
				if w != nil {
					fmt.Fprint(w, sched+traffic)
				}
				return map[string]string{"schedule": sched, "traffic": traffic}, nil
			},
		},
	}
}

// sweepGrid builds the cell list for resolved sweep params: the fixed cell
// from the single-cell params, with each swept axis replaced by its default
// range. Cell order is the deterministic grid order — everything that
// splits or re-executes sweep work by index ranges depends on it.
func sweepGrid(p Params) ([]sweep.Cell, []string, error) {
	cell, err := cellFromParams(p)
	if err != nil {
		return nil, nil, err
	}
	grid := sweep.Grid{
		Networks: []string{cell.Network},
		Configs:  []core.Config{cell.Config},
		Memories: []memsys.DRAM{cell.Memory},
		Batches:  []int{cell.Batch},
		Buffers:  []int64{cell.BufferBytes},
	}
	axes := p.List("axes")
	for _, axis := range axes {
		switch axis {
		case "network":
			grid.Networks = DeepCNNs
		case "config":
			grid.Configs = core.Configs
		case "memory":
			grid.Memories = memsys.Memories
		case "batch":
			grid.Batches = []int{16, 32, 64}
		case "buffer":
			grid.Buffers = []int64{5 << 20, 10 << 20, 20 << 20, 30 << 20, 40 << 20}
		default:
			return nil, nil, paramErrf("sweep", "unknown sweep axis %q (have network, config, memory, batch, buffer)", axis)
		}
	}
	if len(axes) == 0 {
		return nil, nil, paramErrf("sweep", "sweep needs at least one axis")
	}
	if len(grid.Networks) == 1 && grid.Networks[0] == "" {
		return nil, nil, paramErrf("sweep", "sweep needs a network param or the network axis")
	}
	return grid.Cells(), axes, nil
}

// SweepCells resolves p against the sweep scenario and returns its cell
// list in grid order. The async job layer plans shards as index ranges
// over exactly this slice, and shard executors re-derive it — both sides
// rely on the order being a pure function of the params.
func SweepCells(p Params) ([]sweep.Cell, error) {
	s, ok := Lookup("sweep")
	if !ok {
		return nil, fmt.Errorf("sweep scenario not registered")
	}
	resolved, err := s.resolve(p)
	if err != nil {
		return nil, err
	}
	cells, _, err := sweepGrid(resolved)
	return cells, err
}

// Scenarios returns the registry in presentation order.
func Scenarios() []*Scenario { return registry }

// Lookup finds a scenario by name.
func Lookup(name string) (*Scenario, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Names returns the registered scenario names in order.
func Names() []string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	return names
}

// Infos returns the serializable registry listing (sorted copy not needed —
// registry order is already deterministic).
func Infos() []api.ScenarioInfo {
	infos := make([]api.ScenarioInfo, len(registry))
	for i, s := range registry {
		infos[i] = s.Info()
	}
	return infos
}

func init() {
	// The registry is append-only data; a duplicate name is a programming
	// error caught at package load, not at request time.
	seen := make(map[string]bool, len(registry))
	for _, s := range registry {
		if seen[s.Name] {
			panic("experiments: duplicate scenario " + s.Name)
		}
		seen[s.Name] = true
	}
	for _, name := range suiteNames {
		if !seen[name] {
			panic("experiments: suite scenario not registered: " + name)
		}
	}
}
