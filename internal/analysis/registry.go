// Package analysis assembles the reqlint analyzer suite: the three custom
// contract checkers plus the stock x/tools passes the project gates on.
//
// See the individual analyzer packages for what each one proves:
//
//	slabalias    — per-level buffer aliasing contract (internal/core)
//	locked       — +req:guardedBy / +req:locksRequired mutex contracts
//	noalloc      — //req:noalloc whole-path allocation-freedom
package analysis

import (
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/atomic"
	"golang.org/x/tools/go/analysis/passes/bools"
	"golang.org/x/tools/go/analysis/passes/copylock"
	"golang.org/x/tools/go/analysis/passes/lostcancel"
	"golang.org/x/tools/go/analysis/passes/printf"
	"golang.org/x/tools/go/analysis/passes/shift"
	"golang.org/x/tools/go/analysis/passes/stdmethods"
	"golang.org/x/tools/go/analysis/passes/structtag"
	"golang.org/x/tools/go/analysis/passes/unreachable"
	"golang.org/x/tools/go/analysis/passes/unsafeptr"
	"golang.org/x/tools/go/analysis/passes/unusedresult"

	"req/internal/analysis/locked"
	"req/internal/analysis/noalloc"
	"req/internal/analysis/slabalias"
)

// Custom returns the project-specific contract analyzers.
func Custom() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		slabalias.Analyzer,
		locked.Analyzer,
		noalloc.Analyzer,
	}
}

// Stock returns the x/tools passes the project gates on alongside the
// custom analyzers.
//
// The vendored x/tools tree is the syntax-based subset the Go toolchain
// itself ships (no go/ssa), so the SSA-based nilness and unusedwrite passes
// from the original plan cannot be built offline; copylocks plus the passes
// below cover the project's concurrency and correctness gates, and the
// locked analyzer subsumes the unguarded-write cases unusedwrite would
// catch on annotated fields.
func Stock() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomic.Analyzer,
		bools.Analyzer,
		copylock.Analyzer,
		lostcancel.Analyzer,
		printf.Analyzer,
		shift.Analyzer,
		stdmethods.Analyzer,
		structtag.Analyzer,
		unreachable.Analyzer,
		unsafeptr.Analyzer,
		unusedresult.Analyzer,
	}
}

// All returns every analyzer reqlint runs: custom contracts first, then the
// stock passes.
func All() []*analysis.Analyzer {
	return append(Custom(), Stock()...)
}
