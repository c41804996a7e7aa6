package unprotected_test

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"

	"unprotected"
	"unprotected/internal/logstore"
)

// publicSurface is the golden list of exported identifiers of package
// unprotected. An accidental removal, rename, or addition fails this test:
// removals and renames break consumers, and additions are API commitments
// that deserve the deliberate step of updating this list.
var publicSurface = []string{
	"Accumulators",
	"Analyze",
	"Config",
	"DefaultConfig",
	"Event",
	"EventFault",
	"EventKind",
	"EventSession",
	"EventStats",
	"Fault",
	"FuncObserver",
	"Logs",
	"NewAccumulators",
	"NodeID",
	"Observer",
	"Option",
	"ParseSweepAxes",
	"ReportOptions",
	"RunPaperStudy",
	"Session",
	"Simulate",
	"Source",
	"SourceStats",
	"Store",
	"StoreHealth",
	"Study",
	"Sweep",
	"SweepAxis",
	"SweepOption",
	"SweepPoint",
	"SweepResult",
	"SweepScenario",
	"SweepScenarioResult",
	"SweepSpec",
	"SweepSummary",
	"WithController",
	"WithDegraded",
	"WithNodes",
	"WithObservers",
	"WithSweepBudget",
	"WithTimeRange",
	"WithWorkers",
	"WithoutDataset",
}

// TestPublicSurfaceGolden enumerates the package's exported top-level
// identifiers from source and compares them against the golden list.
func TestPublicSurfaceGolden(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["unprotected"]
	if !ok {
		t.Fatalf("package unprotected not found in %v", pkgs)
	}
	var got []string
	for name, file := range pkg.Files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							got = append(got, sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	got = slices.Compact(got)
	want := slices.Clone(publicSurface)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		for _, name := range got {
			if !slices.Contains(want, name) {
				t.Errorf("exported %q is not in the golden surface (new API? update publicSurface deliberately)", name)
			}
		}
		for _, name := range want {
			if !slices.Contains(got, name) {
				t.Errorf("golden identifier %q is no longer exported (breaking change!)", name)
			}
		}
	}
}

func TestPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	cfg := unprotected.DefaultConfig(5)
	if cfg == nil || cfg.Profile == nil {
		t.Fatal("default config incomplete")
	}
	s, err := unprotected.Analyze(context.Background(), unprotected.Simulate(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if s.Dataset == nil || len(s.Dataset.Faults) == 0 {
		t.Fatal("study produced no dataset")
	}
	var buf bytes.Buffer
	s.FullReport(&buf, unprotected.ReportOptions{})
	if !strings.Contains(buf.String(), "independent memory faults") {
		t.Fatal("report missing headline")
	}
}

// TestPublicAnalyze drives the unified entry point end to end through the
// public surface: simulation source, log source, custom observers and the
// raw iterator, each against another spelling of the same study.
func TestPublicAnalyze(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	ctx := context.Background()
	var want bytes.Buffer
	unprotected.RunPaperStudy(6).FullReport(&want, unprotected.ReportOptions{Charts: true})

	var observed int
	counter := unprotected.FuncObserver{Fault: func(unprotected.Fault) { observed++ }}
	study, err := unprotected.Analyze(ctx, unprotected.Simulate(unprotected.DefaultConfig(6)),
		unprotected.WithObservers(counter))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	study.FullReport(&got, unprotected.ReportOptions{Charts: true})
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("Analyze(Simulate) report diverges from RunPaperStudy")
	}
	if observed != len(study.Dataset.Faults) {
		t.Fatalf("observer saw %d faults, dataset holds %d", observed, len(study.Dataset.Faults))
	}

	// Round-trip through the log source: options on the source and on
	// Analyze are the same API.
	dir := t.TempDir()
	if err := logstore.Export(study.Dataset.Sessions, study.Dataset.Faults, dir); err != nil {
		t.Fatal(err)
	}
	fromLogs, err := unprotected.Analyze(ctx, unprotected.Logs(dir, unprotected.WithController("02-04")))
	if err != nil {
		t.Fatal(err)
	}
	viaAnalyze, err := unprotected.Analyze(ctx, unprotected.Logs(dir),
		unprotected.WithController("02-04"), unprotected.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	fromLogs.FullReport(&a, unprotected.ReportOptions{Charts: true})
	viaAnalyze.FullReport(&b, unprotected.ReportOptions{Charts: true})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("options on Logs and on Analyze render different reports")
	}

	// The raw iterator delivers exactly the dataset Analyze collects.
	var itFaults, itSessions int
	for ev, err := range unprotected.Simulate(unprotected.DefaultConfig(6)).Events(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case unprotected.EventFault:
			itFaults++
		case unprotected.EventSession:
			itSessions++
		}
	}
	if itFaults != len(study.Dataset.Faults) || itSessions != len(study.Dataset.Sessions) {
		t.Fatalf("iterator delivered %d/%d, dataset holds %d/%d",
			itFaults, itSessions, len(study.Dataset.Faults), len(study.Dataset.Sessions))
	}
}

// TestSweepPublicAPI drives the sweep surface end to end: parsed axes,
// cartesian expansion, a budgeted run and the rendered comparison — all
// through package unprotected.
func TestSweepPublicAPI(t *testing.T) {
	axes, err := unprotected.ParseSweepAxes([]string{"blades=2", "seed=1,2"})
	if err != nil {
		t.Fatal(err)
	}
	spec := &unprotected.SweepSpec{Base: unprotected.DefaultConfig(42), Axes: axes}
	scenarios, err := spec.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 2 {
		t.Fatalf("expanded %d scenarios, want 2", len(scenarios))
	}
	res, err := unprotected.Sweep(context.Background(), spec, unprotected.WithSweepBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 2 {
		t.Fatalf("sweep returned %d scenarios, want 2", len(res.Scenarios))
	}
	for i, sc := range res.Scenarios {
		if sc.Summary.Faults == 0 || sc.Study == nil {
			t.Fatalf("scenario %d (%s) has no results: %+v", i, sc.Scenario.Name, sc.Summary)
		}
		if len(sc.Study.Dataset.Faults) != 0 {
			t.Fatalf("scenario %d materialized its dataset (%d faults)", i, len(sc.Study.Dataset.Faults))
		}
	}
	if res.Scenarios[0].Scenario.Name >= res.Scenarios[1].Scenario.Name {
		t.Fatalf("results not sorted by name: %q, %q",
			res.Scenarios[0].Scenario.Name, res.Scenarios[1].Scenario.Name)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Cross-scenario comparison") ||
		!strings.Contains(buf.String(), "blades=2,seed=1") {
		t.Fatalf("comparison render incomplete:\n%s", buf.String())
	}

	if _, err := unprotected.ParseSweepAxes([]string{"voltage=3"}); err == nil {
		t.Fatal("unknown axis accepted")
	}
	if _, err := unprotected.Sweep(context.Background(), &unprotected.SweepSpec{}); err == nil {
		t.Fatal("nil base accepted")
	}
}

func TestPublicStudyFromLogs(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	s := unprotected.RunPaperStudy(3)
	dir := t.TempDir()
	if err := logstore.Export(s.Dataset.Sessions, s.Dataset.Faults, dir); err != nil {
		t.Fatal(err)
	}
	replayed, err := unprotected.Analyze(context.Background(),
		unprotected.Logs(dir, unprotected.WithController("02-04")))
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed.Dataset.Faults) != len(s.Dataset.Faults) {
		t.Fatalf("replayed %d faults, want %d", len(replayed.Dataset.Faults), len(s.Dataset.Faults))
	}
	var buf bytes.Buffer
	replayed.FullReport(&buf, unprotected.ReportOptions{})
	if !strings.Contains(buf.String(), "independent memory faults") {
		t.Fatal("replayed report missing headline")
	}
}
