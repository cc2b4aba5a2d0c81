// Command reqbench runs the reproduction experiments (E1–E17, listed by
// -list; internal/harness defines one per file) and prints their tables
// and ASCII figures. Each experiment reproduces one quantitative claim of
// "Relative Error Streaming Quantiles" (PODS 2021) or documents an engine
// extension; -out writes each report to its own .txt file. Speed is
// measured by perfbench/ (see perfbench/README.md), the repository's one
// benchmark rig.
//
// Usage:
//
//	reqbench                      # run every experiment to stdout
//	reqbench -experiment E4       # run one experiment
//	reqbench -experiment E16      # query-engine modes: first read after a
//	                              # write burst (live read vs Snapshot) and
//	                              # batch-query amortization tables
//	reqbench -experiment E17      # windowed registry vs an exact oracle
//	                              # through ring rotations and partial slots
//	reqbench -quick               # reduced scale (seconds instead of minutes)
//	reqbench -out results/        # additionally write one .txt per experiment
//	reqbench -list                # list experiment IDs and titles
//	reqbench -cpuprofile cpu.pb   # CPU profile of the run
//	reqbench -memprofile mem.pb   # heap profile at exit (allocation hunting:
//	                              # the steady-state query path should be
//	                              # invisible here)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"req/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID (e.g. E4) or 'all'")
		quick      = flag.Bool("quick", false, "reduced scale for a fast smoke run")
		seed       = flag.Uint64("seed", 1, "master random seed")
		outDir     = flag.String("out", "", "directory for per-experiment .txt reports (optional)")
		list       = flag.Bool("list", false, "list available experiments and exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	memProfilePath = *memProfile

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		profileOut = f
		defer stopProfile()
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n     reproduces: %s\n", e.ID, e.Title, e.PaperRef)
		}
		return
	}

	cfg := harness.Config{Quick: *quick, Seed: *seed}

	var experiments []harness.Experiment
	if strings.EqualFold(*experiment, "all") {
		experiments = harness.All()
	} else {
		e, ok := harness.Get(*experiment)
		if !ok {
			stopProfile()
			fmt.Fprintf(os.Stderr, "reqbench: unknown experiment %q (use -list)\n", *experiment)
			os.Exit(2)
		}
		experiments = []harness.Experiment{e}
	}

	for _, e := range experiments {
		var w io.Writer = os.Stdout
		var f *os.File
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			var err error
			f, err = os.Create(filepath.Join(*outDir, e.ID+".txt"))
			if err != nil {
				fatal(err)
			}
			w = io.MultiWriter(os.Stdout, f)
		}
		err := harness.RunOne(w, cfg, e)
		if f != nil {
			f.Close()
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
	}
	writeMemProfile()
}

// profileOut is the open -cpuprofile file, if any; fatal must flush it
// because os.Exit bypasses deferred calls. memProfilePath is the -memprofile
// destination, written after the experiments (or on fatal, so a crashing run
// still leaves a heap picture).
var (
	profileOut     *os.File
	memProfilePath string
)

func stopProfile() {
	if profileOut != nil {
		pprof.StopCPUProfile()
		profileOut.Close()
		profileOut = nil
	}
}

func writeMemProfile() {
	if memProfilePath == "" {
		return
	}
	f, err := os.Create(memProfilePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reqbench: -memprofile: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile shows retained allocations
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "reqbench: -memprofile: %v\n", err)
		os.Exit(1)
	}
	memProfilePath = ""
}

func fatal(err error) {
	stopProfile()
	writeMemProfile()
	fmt.Fprintf(os.Stderr, "reqbench: %v\n", err)
	os.Exit(1)
}
