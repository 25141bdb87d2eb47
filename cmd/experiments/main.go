// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig8
//	experiments -run all -quick
//
// Each experiment prints the same rows or series the paper reports; see
// EXPERIMENTS.md for the side-by-side comparison with the published
// numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sprintgame/internal/core"
	"sprintgame/internal/experiments"
)

func main() {
	var (
		runID  = flag.String("run", "all", "experiment id (e.g. fig8, table1) or 'all'")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		quick  = flag.Bool("quick", false, "reduced scale (200 agents, fewer epochs)")
		seed   = flag.Uint64("seed", 1, "random seed")
		epochs = flag.Int("epochs", 0, "override epochs per simulation (0 = default)")
		format = flag.String("format", "text", "output format: text, csv, json, or plot")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick, Epochs: *epochs}
	// Experiments share an in-memory solve cache so repeated game
	// instances (every figure starts from the Table 2 configuration)
	// solve once per run.
	opts.Cache = core.NewSolveCache(core.DefaultSolveCacheCapacity, nil)
	registry := experiments.Registry()

	ids := []string{*runID}
	if *runID == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		gen, ok := registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
			os.Exit(2)
		}
		start := time.Now()
		rep, err := gen(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		if err := rep.RenderAs(os.Stdout, *format); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *format == "text" {
			fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
}
