package harness

import (
	"strings"
	"testing"

	"amac/internal/scenario"
)

func quickOpts() Options {
	return Options{Quick: true, Trials: 2, Seed: 3}
}

// requireHolds fails unless every shape verdict in the table says HOLDS and
// none says VIOLATED.
func requireHolds(t *testing.T, tab *Table) {
	t.Helper()
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: empty table", tab.ID)
	}
	sawVerdict := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "VIOLATED") {
			t.Fatalf("%s: %s\n%s", tab.ID, n, tab.String())
		}
		if strings.Contains(n, "HOLDS") {
			sawVerdict = true
		}
	}
	if !sawVerdict {
		t.Fatalf("%s: no verdict note\n%s", tab.ID, tab.String())
	}
}

func TestFig1StdReliable(t *testing.T) {
	requireHolds(t, Fig1StdReliable(quickOpts()))
}

func TestFig1StdRRestricted(t *testing.T) {
	requireHolds(t, Fig1StdRRestricted(quickOpts()))
}

func TestFig1StdArbitrary(t *testing.T) {
	requireHolds(t, Fig1StdArbitrary(quickOpts()))
}

func TestFig2LowerBound(t *testing.T) {
	requireHolds(t, Fig2LowerBound(quickOpts()))
}

func TestFig1EnhGreyZone(t *testing.T) {
	requireHolds(t, Fig1EnhGreyZone(quickOpts()))
}

func TestAblationFackRatio(t *testing.T) {
	requireHolds(t, AblationFackRatio(quickOpts()))
}

func TestMISExperiment(t *testing.T) {
	tab := MISExperiment(quickOpts())
	if len(tab.Rows) == 0 {
		t.Fatal("empty MIS table")
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "VIOLATED") {
			t.Fatalf("MIS experiment: %s", n)
		}
	}
	for _, row := range tab.Rows {
		if row[3] != "true" {
			t.Fatalf("invalid MIS at n=%s", row[0])
		}
	}
}

func TestSubroutineExperiment(t *testing.T) {
	tab := SubroutineExperiment(quickOpts())
	if len(tab.Rows) == 0 {
		t.Fatal("empty subroutine table")
	}
}

func TestMessageComplexity(t *testing.T) {
	tab := MessageComplexity(quickOpts())
	if len(tab.Rows) == 0 {
		t.Fatal("empty complexity table")
	}
	for _, row := range tab.Rows {
		// The flooding invariant: BMMB broadcasts = n·k exactly.
		if row[3] != "1.00" {
			t.Fatalf("BMMB broadcast ratio %s != 1.00 (row %v)", row[3], row)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:         "x",
		Title:      "demo",
		PaperClaim: "O(1)",
		Columns:    []string{"a", "bb"},
	}
	tab.AddRow("1", "2")
	tab.AddNote("hello %d", 5)
	s := tab.String()
	for _, want := range []string{"## x — demo", "paper: O(1)", "a", "bb", "note: hello 5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("row/column mismatch did not panic")
		}
	}()
	tab := &Table{Columns: []string{"a"}}
	tab.AddRow("1", "2")
}

// coldSweeper runs every (spec, seed) of an experiment's grid through
// scenario.Trial — a fresh topology, fleet and engine per trial, the
// reference the warm sweep path is compared against.
func coldSweeper(_ string, specs []scenario.Spec, _ scenario.SweepOptions) ([]*scenario.Report, error) {
	out := make([]*scenario.Report, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		r := s.WithDefaults()
		out[i] = &scenario.Report{Spec: r}
		for tr := 0; tr < r.Run.Trials; tr++ {
			res, err := scenario.Trial(s, r.Run.Seed+int64(tr))
			if err != nil {
				return nil, err
			}
			out[i].Trials = append(out[i].Trials, res)
		}
	}
	return out, nil
}

// TestExperimentTablesMatchColdTrials renders every ungated experiment
// through the default sweeper, whose trials reuse warm per-worker runners,
// workspaces and fleets, and again through coldSweeper. The rendered tables
// and event totals must be identical: warm reuse may change where memory
// comes from, never an execution.
func TestExperimentTablesMatchColdTrials(t *testing.T) {
	for _, e := range Experiments() {
		if e.Gate != "" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			warm := e.Run(quickOpts())
			o := quickOpts()
			o.Sweeper = coldSweeper
			cold := e.Run(o)
			if w, c := warm.String(), cold.String(); w != c {
				t.Fatalf("warm and cold tables differ\n--- warm ---\n%s--- cold ---\n%s", w, c)
			}
			if warm.SimEvents != cold.SimEvents {
				t.Fatalf("sim events: warm %d, cold %d", warm.SimEvents, cold.SimEvents)
			}
		})
	}
}
