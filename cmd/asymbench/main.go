// Command asymbench regenerates the experiment tables that validate every
// theorem of Blelloch et al., "Sorting with Asymmetric Read and Write
// Costs" (SPAA 2015).
//
// Usage:
//
//	asymbench -exp all            # run every experiment (full sizes)
//	asymbench -exp E4 -quick      # one experiment at test sizes
//	asymbench -exp E3 -format csv # machine-readable output
//	asymbench -exp native         # wall-clock table of the rt native backend
//	asymbench -exp ext            # measured IO + wall-clock of the extmem engine
//	asymbench -list               # enumerate experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"asymsort/internal/exp"
	"asymsort/internal/obs"
)

func main() {
	var (
		expID   = flag.String("exp", "all", "experiment ID (E1..E14), 'native', 'ext', 'kernels', or 'all'")
		quick   = flag.Bool("quick", false, "use reduced problem sizes")
		format  = flag.String("format", "text", "output format: text or csv")
		seed    = flag.Uint64("seed", 1, "base random seed")
		procs   = flag.Int("procs", 0, "native/ext benchmark workers (0 = GOMAXPROCS)")
		list    = flag.Bool("list", false, "list experiments and exit")
		version = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.ReadBuildInfo())
		return
	}
	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		fmt.Printf("%-4s %s\n", "native", "Hardware backend wall-clock (rt native, not golden-stable)")
		fmt.Printf("%-4s %s\n", "ext", "External-memory engine measured IO + wall-clock (extmem, not golden-stable)")
		fmt.Printf("%-4s %s\n", "kernels", "Kernel registry metered writes vs classic baselines (not golden-stable)")
		return
	}
	cfg := exp.Config{Quick: *quick, Seed: *seed, CSV: *format == "csv"}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "asymbench: unknown format %q\n", *format)
		os.Exit(2)
	}
	switch {
	case strings.EqualFold(*expID, "native"):
		exp.NativeBench(os.Stdout, cfg, *procs)
	case strings.EqualFold(*expID, "ext"):
		exp.ExtBench(os.Stdout, cfg, *procs)
	case strings.EqualFold(*expID, "kernels"):
		exp.KernelsBench(os.Stdout, cfg, *procs)
	case strings.EqualFold(*expID, "all"):
		for _, e := range exp.All() {
			e.Run(os.Stdout, cfg)
		}
	default:
		e, ok := exp.Lookup(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "asymbench: unknown experiment %q (use -list)\n", *expID)
			os.Exit(2)
		}
		e.Run(os.Stdout, cfg)
	}
}
