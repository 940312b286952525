// Command mbsim runs the WaveCore simulator experiments through the
// scenario registry: every paper figure and table, the MBS schedule view,
// single-cell simulations and custom sweep grids are named scenarios with
// typed params, discoverable with -list and runnable by name with -scenario.
// The mbsd service serves the same names and params.
//
// Experiments execute on the concurrent sweep engine (-parallel selects the
// worker count; the default uses every core). Output is deterministic: a
// parallel run renders byte-identical tables to a sequential one, and -json
// emits exactly the bytes the mbsd service serves for the same scenario.
//
// Usage:
//
//	mbsim -list
//	mbsim -scenario fig10 [-parallel N] [-json]
//	mbsim -scenario all [-json]
//	mbsim -scenario single -param network=resnet50 -param memory=LPDDR4
//	mbsim -scenario sweep -param network=resnet152 -param axes=memory,buffer
//	mbsim -scenario schedule -param network=inceptionv3 -param grouping=optimal
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/buildinfo"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sweep"
)

// paramFlags collects repeated -param key=value flags.
type paramFlags map[string]string

func (p paramFlags) String() string { return fmt.Sprint(map[string]string(p)) }

func (p paramFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	p[k] = v
	return nil
}

func main() {
	list := flag.Bool("list", false, "print the scenario registry and exit")
	scenario := flag.String("scenario", "", "run a registered scenario by name (see -list)")
	params := paramFlags{}
	flag.Var(params, "param", "scenario parameter as key=value (repeatable)")
	parallel := flag.Int("parallel", 0, "sweep worker count (0 = all cores)")
	jsonOut := flag.Bool("json", false, "emit structured JSON instead of tables")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Print("mbsim"))
		return
	}
	if *list {
		printRegistry()
		return
	}
	if *scenario == "" {
		flag.Usage()
		os.Exit(2)
	}
	s, ok := experiments.Lookup(*scenario)
	if !ok {
		fatal(fmt.Errorf("mbsim: unknown scenario %q (run mbsim -list)", *scenario))
	}

	// Ctrl-C cancels the in-flight sweep cleanly: workers drain, nothing is
	// half-written, and the process exits with the conventional 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	e := sweep.New(*parallel)
	r := experiments.Runner{E: e}
	if *jsonOut {
		data, err := s.Run(ctx, r, experiments.Params(params), nil)
		if err != nil {
			fatal(err)
		}
		if err := report.WriteJSON(os.Stdout, s.JSONValue(data)); err != nil {
			fatal(err)
		}
		return
	}
	if _, err := s.Run(ctx, r, experiments.Params(params), os.Stdout); err != nil {
		fatal(err)
	}
	// A CLI-only trailer, outside the scenario render so server text output
	// stays a pure function of the params.
	if s.Name == "sweep" {
		plans := e.Cache().Stats().Tables["plan"]
		fmt.Printf("cache: %d plans built, %d reused\n", plans.Misses, plans.Hits)
	}
}

// printRegistry renders the scenario registry so scenarios are discoverable
// without reading source.
func printRegistry() {
	t := report.NewTable("Registered scenarios (run with -scenario NAME [-param k=v ...])",
		"scenario", "params", "description")
	for _, info := range experiments.Infos() {
		specs := make([]string, len(info.Params))
		for i, p := range info.Params {
			if p.Default != "" {
				specs[i] = fmt.Sprintf("%s=%s", p.Name, p.Default)
			} else {
				specs[i] = p.Name
			}
		}
		paramCol := "-"
		if len(specs) > 0 {
			paramCol = strings.Join(specs, " ")
		}
		t.RowF(info.Name, paramCol, info.Description)
	}
	t.Render(os.Stdout)
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "mbsim: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
