// Command experiments regenerates the paper's tables and figures
// (Table 1, 3-6; Figures 4-7) on the simulated device, running each
// distinct optimizer configuration once (see internal/exp).
//
// Usage:
//
//	experiments -all            # everything, reduced scale (under two minutes)
//	experiments -table 5        # one table, running only what it prints
//	experiments -fig 7          # one figure
//	experiments -all -config full   # paper-scale settings (slow)
//
// An unknown value is a usage error (exit 2). A table or figure that
// fails, or holds a cell reading "error", prints its error, the rest
// still print, and the exit is 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"tensat/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	cfg, views, err := parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	runs := exp.NewRuns(cfg)
	failed := false
	for _, v := range views {
		out, err := v.Render(runs)
		if out != "" {
			fmt.Println(out)
		}
		if err != nil {
			log.Printf("%s %d: %v", v.Kind, v.N, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// parse reads the command line: the configuration, and the views to
// print in print order. It prints its own errors and the usage.
func parse(args []string) (exp.Config, []exp.View, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	cfg := exp.Default()
	fs.Func("config", "config: default (fast) or full (paper scale)", func(s string) error {
		switch s {
		case "default":
			cfg = exp.Default()
		case "full":
			cfg = exp.Full()
		default:
			return errors.New("known: default, full")
		}
		return nil
	})
	picked := make([]bool, len(exp.Views))
	pick := func(kind string) func(string) error {
		return func(s string) error {
			var known []string
			for i, v := range exp.Views {
				if v.Kind == kind && strconv.Itoa(v.N) == s {
					picked[i] = true
					return nil
				}
				if v.Kind == kind {
					known = append(known, strconv.Itoa(v.N))
				}
			}
			return errors.New("known: " + strings.Join(known, ", "))
		}
	}
	fs.Func("table", "regenerate one table (1, 3, 4, 5 or 6)", pick("table"))
	fs.Func("fig", "regenerate one figure (4, 5, 6 or 7)", pick("fig"))
	all := fs.Bool("all", false, "regenerate every table and figure")
	if err := fs.Parse(args); err != nil {
		return cfg, nil, err
	}
	var views []exp.View
	for i, v := range exp.Views {
		if *all || picked[i] {
			views = append(views, v)
		}
	}
	if len(views) == 0 {
		err := errors.New("nothing to run: pass -all, -table N or -fig N")
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return cfg, nil, err
	}
	return cfg, views, nil
}
