// Command hdface-bench regenerates the tables and figures of the HDFace
// paper's evaluation. Run all experiments:
//
//	hdface-bench -exp all -out results/
//
// or a single one:
//
//	hdface-bench -exp fig7 -quick
//
// Output goes to stdout; Figure 6 additionally writes PGM visualisations
// into -out when given.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hdface/internal/experiments"
	"hdface/internal/obs"
	"hdface/internal/obscli"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment to run (all, or a comma list; see -list)")
		quick = flag.Bool("quick", false, "cut dataset sizes ~3x for a fast pass")
		seed  = flag.Uint64("seed", 7, "random seed")
		out   = flag.String("out", "", "directory for PGM artefacts (created if missing)")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	of := obscli.Register(flag.CommandLine)
	flag.Parse()
	of.Activate(map[string]string{
		"cmd": "bench", "exp": *exp, "seed": strconv.FormatUint(*seed, 10),
		"quick": strconv.FormatBool(*quick),
	})

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-12s %s\n", r.Name, r.Desc)
		}
		return
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick, OutDir: *out}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "hdface-bench:", err)
			os.Exit(1)
		}
	}

	var runners []experiments.Runner
	if *exp == "all" {
		runners = experiments.All()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			r, ok := experiments.Get(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "hdface-bench: unknown experiment %q (use -list)\n", name)
				os.Exit(1)
			}
			runners = append(runners, r)
		}
	}

	for _, r := range runners {
		start := time.Now()
		sp := obs.StartSpan("exp_" + r.Name)
		err := r.Run(os.Stdout, opts)
		sp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdface-bench: %s: %v\n", r.Name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", r.Name, time.Since(start).Round(time.Millisecond))
	}
	if err := of.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "hdface-bench:", err)
		os.Exit(1)
	}
}
