// Package harness regenerates the paper's evaluation: each experiment in
// this package corresponds to one cell of the results table (Figure 1), one
// lower-bound construction (Figure 2), or one subroutine lemma, and prints
// the measured series next to the paper's bound formula. The harness
// verifies *shape* — bounded measured/bound ratios for upper bounds,
// measured ≥ formula for lower bounds — never absolute constants, since the
// substrate is a simulator rather than the authors' testbed.
package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier from DESIGN.md (e.g.
	// "fig1-std-rrestricted").
	ID string
	// Title describes the experiment.
	Title string
	// PaperClaim is the bound or theorem being reproduced.
	PaperClaim string
	// Columns are the column headers.
	Columns []string
	// Rows are the data rows, one cell per column.
	Rows [][]string
	// Notes carries verdicts and fit summaries.
	Notes []string
	// SimEvents totals the simulation events of every execution behind the
	// table: amacbench's throughput numerator. It is not rendered.
	SimEvents uint64
}

// AddRow appends a data row; the cell count must match the columns.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("harness: row with %d cells for %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a formatted note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned ASCII plus its notes.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n", t.ID, t.Title)
	if t.PaperClaim != "" {
		fmt.Fprintf(w, "paper: %s\n", t.PaperClaim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
