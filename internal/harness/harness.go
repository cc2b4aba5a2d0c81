// Package harness implements the reproduction experiments: one per
// quantitative claim of the paper (Theorems 1–3, the Appendix C variant,
// the Appendix A lower-bound construction, the schedule/coin design choices)
// plus the baseline comparisons motivated in Section 1. Each experiment
// registers itself under an ID (E1, E2, …) from its own file; `reqbench
// -list` prints the index, and `reqbench -out dir` records the results.
//
// Every experiment writes a self-contained plain-text report (tables and
// ASCII figures) to an io.Writer; cmd/reqbench runs them from the command
// line, and the package tests run them in -quick mode to keep them from
// bit-rotting.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks stream lengths and trial counts so the whole suite
	// runs in seconds (used by tests); full scale is the default for the
	// CLI.
	Quick bool
	// Seed is the master seed; every experiment derives per-trial seeds
	// from it deterministically.
	Seed uint64
}

// Experiment is one registered reproduction experiment.
type Experiment struct {
	// ID is the short identifier (e.g. "E1").
	ID string
	// Title summarises the experiment.
	Title string
	// PaperRef names the claim being reproduced.
	PaperRef string
	// Run executes the experiment, writing its report to w.
	Run func(w io.Writer, cfg Config) error
}

// registry holds experiments in registration order.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in ID order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return idLess(out[i].ID, out[j].ID) })
	return out
}

// idLess orders E1 < E2 < … < E10 numerically rather than lexically.
func idLess(a, b string) bool {
	na, oka := idNum(a)
	nb, okb := idNum(b)
	if oka && okb {
		return na < nb
	}
	return a < b
}

func idNum(id string) (int, bool) {
	if len(id) < 2 || (id[0] != 'E' && id[0] != 'F') {
		return 0, false
	}
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = 10*n + int(c-'0')
	}
	if id[0] == 'F' {
		n += 1000 // figures sort after experiments
	}
	return n, true
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order, separated by headers.
func RunAll(w io.Writer, cfg Config) error {
	for _, e := range All() {
		if err := RunOne(w, cfg, e); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// RunOne executes a single experiment with its header banner.
func RunOne(w io.Writer, cfg Config, e Experiment) error {
	rule := strings.Repeat("=", 78)
	fmt.Fprintf(w, "%s\n%s — %s\n  reproduces: %s\n%s\n", rule, e.ID, e.Title, e.PaperRef, rule)
	if err := e.Run(w, cfg); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// Table accumulates rows and prints them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends one row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	abs := v
	if abs < 0 {
		abs = -abs
	}
	switch {
	case v == 0:
		return "0"
	case abs >= 1000 || abs < 0.001:
		return fmt.Sprintf("%.4g", v)
	case abs >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.5f", v)
	}
}

// Fprint writes the table, padding each column to its widest cell.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		b.Reset()
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(b.String(), " "))
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// CSV renders the table as comma-separated rows (no quoting; cells are
// numeric or simple identifiers by construction).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
