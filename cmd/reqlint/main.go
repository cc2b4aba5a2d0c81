// Reqlint is the project's static-analysis gate: the three custom contract
// analyzers (slabalias, locked, noalloc) plus the stock
// x/tools passes, packaged as a go vet tool.
//
// Two ways to run it:
//
//	go vet -vettool=$(which reqlint) ./...   # as a vet tool (CI does this)
//	go run ./cmd/reqlint ./...               # standalone; re-execs go vet
//
// In vet-tool mode the binary speaks the unitchecker protocol (go vet
// invokes it once per package with a *.cfg file describing the unit). In
// standalone mode it builds nothing itself: it re-executes
// `go vet -vettool=<self> <args>`, so both modes analyze with identical
// configuration and the standalone form needs no go/packages driver.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"req/internal/analysis"
)

func main() {
	if vetToolInvocation(os.Args[1:]) {
		unitchecker.Main(analysis.All()...) // does not return
	}

	// Standalone mode: re-exec through go vet with ourselves as the tool.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "reqlint: cannot locate own binary: %v\n", err)
		os.Exit(2)
	}
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "reqlint: %v\n", err)
		os.Exit(2)
	}
}

// vetToolInvocation reports whether the arguments look like go vet driving
// the unitchecker protocol: a -V=... version probe, -flags introspection,
// or a package unit config file.
func vetToolInvocation(args []string) bool {
	for _, a := range args {
		if strings.HasPrefix(a, "-V=") || a == "-flags" || strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}
