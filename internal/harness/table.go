package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is the text rendering of one experiment: one row per application
// (plus a MEAN row) and one column per series. The JSON form is part of
// the service and -json CLI output, so the tags are load-bearing.
type Table struct {
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    []Row    `json:"rows"`
	Notes   []string `json:"notes,omitempty"`
}

// Row is one labelled series of values; NaN-free by construction.
type Row struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

// AddRow appends a row.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Lookup returns the row with the given label.
func (t *Table) Lookup(label string) (Row, bool) {
	for _, r := range t.Rows {
		if r.Label == label {
			return r, true
		}
	}
	return Row{}, false
}

// Cell returns the value at (rowLabel, column).
func (t *Table) Cell(rowLabel, column string) (float64, bool) {
	r, ok := t.Lookup(rowLabel)
	if !ok {
		return 0, false
	}
	for i, c := range t.Columns {
		if c == column && i < len(r.Values) {
			return r.Values[i], true
		}
	}
	return 0, false
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	labelW := len("MEAN")
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	colW := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colW[i] = len(c)
		if colW[i] < 8 {
			colW[i] = 8
		}
	}
	fmt.Fprintf(w, "%-*s", labelW+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(w, " %*s", colW[i], c)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", labelW+2+sum(colW)+len(colW)))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", labelW+2, r.Label)
		for i := range t.Columns {
			if i < len(r.Values) {
				fmt.Fprintf(w, " %*.*f", colW[i], precisionFor(r.Values[i]), r.Values[i])
			} else {
				fmt.Fprintf(w, " %*s", colW[i], "-")
			}
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func precisionFor(v float64) int {
	if v >= 1000 || v <= -1000 {
		return 0
	}
	return 2
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
