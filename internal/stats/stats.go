// Package stats renders experiment results as aligned text tables —
// the rows/series of the paper's figures in reproducible textual form.
package stats

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	// Title heads the rendered output.
	Title string
	// Columns are the header cells.
	Columns []string
	rows    [][]string
}

// NewTable builds a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; missing cells render empty, extra cells are
// dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Cell returns the rendered cell at (row, col).
func (t *Table) Cell(row, col int) (string, error) {
	if row < 0 || row >= len(t.rows) || col < 0 || col >= len(t.Columns) {
		return "", fmt.Errorf("stats: cell (%d,%d) out of range", row, col)
	}
	return t.rows[row][col], nil
}

// CellFloat parses the cell at (row, col) as a float.
func (t *Table) CellFloat(row, col int) (float64, error) {
	s, err := t.Cell(row, col)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("stats: cell (%d,%d) %q: %w", row, col, s, err)
	}
	return v, nil
}

// ColumnIndex finds a column by header name.
func (t *Table) ColumnIndex(name string) (int, error) {
	for i, c := range t.Columns {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("stats: no column %q", name)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(pad(cell, widths[i]))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// F formats a float with the given precision.
func F(v float64, prec int) string {
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// I formats an integer.
func I(v int) string { return strconv.Itoa(v) }

// U formats an unsigned counter.
func U(v uint64) string { return strconv.FormatUint(v, 10) }

// Pct formats a ratio as a percentage.
func Pct(v float64) string { return F(100*v, 1) + "%" }
