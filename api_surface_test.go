package req

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestAPISurfaceGolden pins the package's exported surface: every exported
// type, function, method, variable and constant of package req, as parsed
// from the non-test sources. An accidental addition, removal or rename
// fails this test with a diff; intentional API changes update the golden
// list below (and should be called out in README/CHANGES).
func TestAPISurfaceGolden(t *testing.T) {
	got := exportedSurface(t)
	want := apiSurfaceGolden
	gotSet := make(map[string]bool, len(got))
	for _, s := range got {
		gotSet[s] = true
	}
	wantSet := make(map[string]bool, len(want))
	for _, s := range want {
		wantSet[s] = true
	}
	var added, removed []string
	for _, s := range got {
		if !wantSet[s] {
			added = append(added, s)
		}
	}
	for _, s := range want {
		if !gotSet[s] {
			removed = append(removed, s)
		}
	}
	if len(added) > 0 || len(removed) > 0 {
		t.Fatalf("exported API surface changed.\nadded (%d):\n  %s\nremoved (%d):\n  %s\nfull current surface:\n  %s",
			len(added), strings.Join(added, "\n  "),
			len(removed), strings.Join(removed, "\n  "),
			strings.Join(got, "\n  "))
	}
}

// exportedSurface parses the package sources and returns the sorted list of
// exported identifiers: "Name" for types/funcs/vars/consts, "Recv.Name"
// for methods.
func exportedSurface(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(".", e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names = append(names, d.Name.Name)
					continue
				}
				recv := receiverTypeName(d.Recv.List[0].Type)
				if recv == "" || !ast.IsExported(recv) {
					continue
				}
				names = append(names, fmt.Sprintf("%s.%s", recv, d.Name.Name))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							names = append(names, sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// receiverTypeName unwraps pointer and generic instantiation syntax around
// a method receiver's type name.
func receiverTypeName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// apiSurfaceGolden is the blessed exported surface of package req.
var apiSurfaceGolden = []string{
	"AllQuantiles",
	"DecodeFloat64",
	"DecodeUint64",
	"ErrBadRank",
	"ErrCorrupt",
	"ErrEmpty",
	"ErrNoKey",
	"ErrNoSnapshot",
	"ErrTornWrite",
	"Float64",
	"KV",
	"MappedFloat64",
	"MappedSnapshot",
	"MappedSnapshot.Close",
	"MappedSnapshot.Generation",
	"MappedSnapshot.Mapped",
	"MappedUint64",
	"New",
	"NewFloat64",
	"NewRegistry",
	"NewRegistryFloat64",
	"NewRegistryUint64",
	"NewSharded",
	"NewShardedFloat64",
	"NewShardedUint64",
	"NewUint64",
	"NewWindowedRegistry",
	"NewWindowedRegistryFloat64",
	"OpenOption",
	"OpenRegistryFileFloat64",
	"OpenRegistryFileUint64",
	"OpenRegistryFloat64",
	"OpenRegistryUint64",
	"OpenSnapshotFileFloat64",
	"OpenSnapshotFileUint64",
	"OpenSnapshotFloat64",
	"OpenSnapshotUint64",
	"Option",
	"Reader",
	"Registry",
	"Registry.Contains",
	"Registry.Count",
	"Registry.Delete",
	"Registry.Evictions",
	"Registry.ExpireNow",
	"Registry.Len",
	"Registry.MarshalBinary",
	"Registry.NumShards",
	"Registry.Quantile",
	"Registry.QuantilesInto",
	"Registry.Rank",
	"Registry.Reset",
	"Registry.SaveRegistry",
	"Registry.Snapshot",
	"Registry.String",
	"Registry.Update",
	"Registry.UpdateBatch",
	"Registry.UpdateKVs",
	"Registry.UpdatePairs",
	"Registry.Visit",
	"Registry.WriteRegistryFile",
	"RegistryFloat64",
	"RegistrySnapshot",
	"RegistrySnapshot.All",
	"RegistrySnapshot.Generation",
	"RegistrySnapshot.Get",
	"RegistrySnapshot.Len",
	"RegistrySnapshot.String",
	"RegistrySnapshotFloat64",
	"RegistrySnapshotUint64",
	"RegistryUint64",
	"Sharded",
	"Sharded.All",
	"Sharded.CDF",
	"Sharded.CDFInto",
	"Sharded.Count",
	"Sharded.Empty",
	"Sharded.ItemsRetained",
	"Sharded.MarshalBinary",
	"Sharded.Max",
	"Sharded.Merge",
	"Sharded.Min",
	"Sharded.NormalizedRank",
	"Sharded.NormalizedRankBatch",
	"Sharded.NumShards",
	"Sharded.PMF",
	"Sharded.PMFInto",
	"Sharded.Quantile",
	"Sharded.Quantiles",
	"Sharded.QuantilesInto",
	"Sharded.Rank",
	"Sharded.RankBatch",
	"Sharded.RankExclusive",
	"Sharded.Reset",
	"Sharded.SaveSnapshot",
	"Sharded.Snapshot",
	"Sharded.Update",
	"Sharded.UpdateBatch",
	"Sharded.UpdateWeighted",
	"ShardedFloat64",
	"ShardedUint64",
	"Sketch",
	"Sketch.All",
	"Sketch.CDF",
	"Sketch.CDFInto",
	"Sketch.Clone",
	"Sketch.Count",
	"Sketch.DebugString",
	"Sketch.Delta",
	"Sketch.Empty",
	"Sketch.Epsilon",
	"Sketch.ItemsRetained",
	"Sketch.K",
	"Sketch.MarshalBinary",
	"Sketch.Max",
	"Sketch.Merge",
	"Sketch.Min",
	"Sketch.NormalizedRank",
	"Sketch.NormalizedRankBatch",
	"Sketch.NumLevels",
	"Sketch.PMF",
	"Sketch.PMFInto",
	"Sketch.Quantile",
	"Sketch.Quantiles",
	"Sketch.QuantilesInto",
	"Sketch.Rank",
	"Sketch.RankBatch",
	"Sketch.RankBounds",
	"Sketch.RankExclusive",
	"Sketch.Reset",
	"Sketch.SaveSnapshot",
	"Sketch.Snapshot",
	"Sketch.String",
	"Sketch.UnmarshalBinary",
	"Sketch.Update",
	"Sketch.UpdateBatch",
	"Sketch.UpdateWeighted",
	"Snapshot",
	"Snapshot.All",
	"Snapshot.CDF",
	"Snapshot.CDFInto",
	"Snapshot.Count",
	"Snapshot.Delta",
	"Snapshot.Empty",
	"Snapshot.Epsilon",
	"Snapshot.ItemsRetained",
	"Snapshot.MarshalBinary",
	"Snapshot.Max",
	"Snapshot.Min",
	"Snapshot.NormalizedRank",
	"Snapshot.NormalizedRankBatch",
	"Snapshot.PMF",
	"Snapshot.PMFInto",
	"Snapshot.Quantile",
	"Snapshot.Quantiles",
	"Snapshot.QuantilesInto",
	"Snapshot.Rank",
	"Snapshot.RankBatch",
	"Snapshot.RankExclusive",
	"Snapshot.SaveSnapshot",
	"Snapshot.String",
	"Snapshot.WriteSnapshotFile",
	"SnapshotFloat64",
	"SnapshotUint64",
	"Uint64",
	"UnmarshalRegistryFloat64",
	"UnmarshalRegistryUint64",
	"UnmarshalSnapshotFloat64",
	"UnmarshalSnapshotUint64",
	"VerifyChecksum",
	"VerifyFull",
	"VerifyMode",
	"VerifyNone",
	"WindowedRegistry",
	"WindowedRegistry.Contains",
	"WindowedRegistry.Count",
	"WindowedRegistry.Delete",
	"WindowedRegistry.Evictions",
	"WindowedRegistry.ExpireNow",
	"WindowedRegistry.Len",
	"WindowedRegistry.NumShards",
	"WindowedRegistry.Quantile",
	"WindowedRegistry.QuantilesInto",
	"WindowedRegistry.Rank",
	"WindowedRegistry.Reset",
	"WindowedRegistry.SlotDuration",
	"WindowedRegistry.Slots",
	"WindowedRegistry.String",
	"WindowedRegistry.Update",
	"WindowedRegistry.UpdateBatch",
	"WindowedRegistry.UpdateKVs",
	"WindowedRegistry.UpdatePairs",
	"WindowedRegistry.WindowDuration",
	"WindowedRegistryFloat64",
	"WithClock",
	"WithDelta",
	"WithEpsilon",
	"WithHighRankAccuracy",
	"WithK",
	"WithKnownN",
	"WithMaxEntries",
	"WithPaperConstants",
	"WithSeed",
	"WithShards",
	"WithTTL",
	"WithTheorem2Mode",
	"WithVerify",
	"WithWindow",
	"WithoutMmap",
}
