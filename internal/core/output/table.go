// Package output implements Mantra's Output Interface: the interactive
// summary tables and two-dimensional line graphs the paper serves through
// Java applets, realized here as an in-memory model with search/sort/
// column-algebra operations, an ASCII graph renderer with overlay and
// zoom, and HTTP endpoints serving both as JSON and plain text. Like the
// paper's presentation module, the endpoints show the last completed
// monitoring cycle: every one but /stats reads views published whole at
// the end of a cycle, and none takes a lock.
package output

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Cell is one table value: a string, a number, or a timestamp.
type Cell struct {
	S string
	F float64
	T time.Time
	// Kind selects which field is meaningful.
	Kind CellKind
}

// CellKind discriminates cell contents.
type CellKind int

// Cell kinds.
const (
	CellString CellKind = iota
	CellNumber
	CellTime
)

// Str returns a string cell.
func Str(s string) Cell { return Cell{S: s, Kind: CellString} }

// Num returns a numeric cell.
func Num(f float64) Cell { return Cell{F: f, Kind: CellNumber} }

// Time returns a timestamp cell.
func Time(t time.Time) Cell { return Cell{T: t, Kind: CellTime} }

// String renders the cell. Whole numbers print without a fraction;
// fractional values round to one decimal for display.
func (c Cell) String() string {
	switch c.Kind {
	case CellNumber:
		if c.F == float64(int64(c.F)) {
			return strconv.FormatInt(int64(c.F), 10)
		}
		return strconv.FormatFloat(c.F, 'f', 1, 64)
	case CellTime:
		return c.T.UTC().Format("2006-01-02 15:04")
	}
	return c.S
}

// less orders two cells of the same kind.
func (c Cell) less(o Cell) bool {
	switch c.Kind {
	case CellNumber:
		return c.F < o.F
	case CellTime:
		return c.T.Before(o.T)
	}
	return c.S < o.S
}

// Table is an interactive summary table.
type Table struct {
	Name    string
	Columns []string
	Rows    [][]Cell
}

// NewTable returns an empty table with the given columns.
func NewTable(name string, columns ...string) *Table {
	return &Table{Name: name, Columns: columns}
}

// AddRow appends one row; it must match the column count.
func (t *Table) AddRow(cells ...Cell) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("output: row has %d cells, table %q has %d columns", len(cells), t.Name, len(t.Columns))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// colIndex resolves a column name.
func (t *Table) colIndex(name string) (int, error) {
	for i, c := range t.Columns {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("output: no column %q in table %q", name, t.Name)
}

// Sort orders rows by the named column; stable, ascending or descending.
func (t *Table) Sort(column string, ascending bool) error {
	idx, err := t.colIndex(column)
	if err != nil {
		return err
	}
	sort.SliceStable(t.Rows, func(i, j int) bool {
		if ascending {
			return t.Rows[i][idx].less(t.Rows[j][idx])
		}
		return t.Rows[j][idx].less(t.Rows[i][idx])
	})
	return nil
}

// Search returns a new table holding the rows whose rendered cells
// contain substr (case-insensitive) in any column.
func (t *Table) Search(substr string) *Table {
	needle := strings.ToLower(substr)
	out := &Table{Name: t.Name, Columns: t.Columns}
	for _, row := range t.Rows {
		for _, c := range row {
			if strings.Contains(strings.ToLower(c.String()), needle) {
				out.Rows = append(out.Rows, row)
				break
			}
		}
	}
	return out
}

// Filter returns a new table with the rows for which keep returns true.
func (t *Table) Filter(keep func(row []Cell) bool) *Table {
	out := &Table{Name: t.Name, Columns: t.Columns}
	for _, row := range t.Rows {
		if keep(row) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// AddComputedColumn appends a column computed from each row — the
// "algebraic manipulation of numeric columns" operation. fn receives the
// row and returns the new cell value.
func (t *Table) AddComputedColumn(name string, fn func(row []Cell) float64) {
	t.Columns = append(t.Columns, name)
	for i, row := range t.Rows {
		t.Rows[i] = append(row, Num(fn(row)))
	}
}

// SumColumn totals a numeric column.
func (t *Table) SumColumn(column string) (float64, error) {
	idx, err := t.colIndex(column)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, row := range t.Rows {
		sum += row[idx].F
	}
	return sum, nil
}

// ConvertTimes rewrites every time cell of a column into the given
// location — the date/time conversion operation of the applet interface.
func (t *Table) ConvertTimes(column string, loc *time.Location) error {
	idx, err := t.colIndex(column)
	if err != nil {
		return err
	}
	for _, row := range t.Rows {
		if row[idx].Kind == CellTime {
			row[idx].T = row[idx].T.In(loc)
		}
	}
	return nil
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	rendered := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		rendered[r] = make([]string, len(row))
		for i, c := range row {
			s := c.String()
			rendered[r][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s (%d rows)\n", t.Name, len(t.Rows)); err != nil {
		return err
	}
	for i, c := range t.Columns {
		fmt.Fprintf(w, "%-*s  ", widths[i], c)
		_ = i
	}
	fmt.Fprintln(w)
	for _, row := range rendered {
		for i, s := range row {
			fmt.Fprintf(w, "%-*s  ", widths[i], s)
		}
		fmt.Fprintln(w)
	}
	return nil
}
