package harness

import (
	"bytes"
	"strings"
	"testing"

	"req/internal/quantile"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E17", "F1"}
	all := All()
	if len(all) != len(want) {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		t.Fatalf("registry has %d experiments: %v", len(all), ids)
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
}

func TestRegistryOrdering(t *testing.T) {
	all := All()
	if all[0].ID != "E1" {
		t.Fatalf("first experiment %s", all[0].ID)
	}
	// E10 must sort after E9 (numeric, not lexicographic).
	idx := map[string]int{}
	for i, e := range all {
		idx[e.ID] = i
	}
	if idx["E10"] < idx["E9"] {
		t.Fatal("numeric ID ordering broken")
	}
	if idx["F1"] != len(all)-1 {
		t.Fatal("figures should sort last")
	}
}

func TestGetCaseInsensitive(t *testing.T) {
	if _, ok := Get("e1"); !ok {
		t.Fatal("lowercase lookup failed")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("bogus ID found")
	}
}

func TestLogRanks(t *testing.T) {
	ranks := LogRanks(1000, 2)
	if ranks[0] != 1 || ranks[len(ranks)-1] != 1000 {
		t.Fatalf("endpoints: %v", ranks)
	}
	for i := 1; i < len(ranks); i++ {
		if ranks[i] <= ranks[i-1] {
			t.Fatalf("not strictly ascending: %v", ranks)
		}
	}
	if len(LogRanks(0, 2)) != 0 {
		t.Fatal("n=0 should have no ranks")
	}
	one := LogRanks(1, 3)
	if len(one) != 1 || one[0] != 1 {
		t.Fatalf("n=1: %v", one)
	}
}

func TestTailQueryRanks(t *testing.T) {
	ranks := TailQueryRanks(1000, []float64{0.5, 0.999, 1})
	if ranks[0] != 500 || ranks[1] != 999 || ranks[2] != 1000 {
		t.Fatalf("ranks = %v", ranks)
	}
	zero := TailQueryRanks(10, []float64{0})
	if zero[0] != 1 {
		t.Fatal("zero percentile must clamp to rank 1")
	}
}

func TestTable(t *testing.T) {
	tab := NewTable("a", "bb", "c")
	tab.AddRow(1, 2.5, "x")
	tab.AddRow(10, 0.33333, "longer")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"a", "bb", "c", "longer", "2.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb,c\n") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "10,0.33333,longer") {
		t.Fatalf("csv row: %q", csv)
	}
}

// TestAllExperimentsQuick runs the whole suite in quick mode: every
// experiment must complete without error and produce non-trivial output.
// This is the harness's own regression test.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment suite skipped in -short")
	}
	cfg := Config{Quick: true, Seed: 7}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := RunOne(&buf, cfg, e); err != nil {
				t.Fatalf("%s failed: %v\n%s", e.ID, err, buf.String())
			}
			if buf.Len() < 100 {
				t.Fatalf("%s produced only %d bytes", e.ID, buf.Len())
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) || !strings.Contains(out, e.Title) {
				t.Fatalf("%s: banner missing", e.ID)
			}
		})
	}
}

func TestMeasureRankErrorSanity(t *testing.T) {
	// The exact oracle run through the interface must show zero error.
	prof := MeasureRankError(exactFactory(), PermData(2000), LogRanks(2000, 2), 2, 1)
	for i := range prof.Ranks {
		if prof.Max[i] != 0 {
			t.Fatalf("exact oracle shows error %v at rank %d", prof.Max[i], prof.Ranks[i])
		}
	}
}

// exactFactory wraps the exact oracle as a Factory for sanity tests.
func exactFactory() quantile.Factory {
	return quantile.Factory{Name: "exact", New: func(uint64) quantile.Sketch {
		return quantile.NewExact(0)
	}}
}
