// Package report renders experiment series as aligned text tables, CSV
// files, and terminal ASCII plots — the output layer of cmd/figures and
// the examples.
package report

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Table is a simple column-oriented table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row. Short rows are padded with empty cells to the
// header count; a row with more cells than the table has headers is a
// programming error and panics — silently dropping data would corrupt
// the rendered artifact.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Headers) {
		panic(fmt.Sprintf("report: AddRow got %d cells for a %d-column table %q (overflow: %v)",
			len(cells), len(t.Headers), t.Title, cells[len(t.Headers):]))
	}
	for len(cells) < len(t.Headers) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// AddFloats appends a row of formatted numbers after a leading label.
func (t *Table) AddFloats(label string, format string, vals ...float64) {
	cells := make([]string, 0, len(vals)+1)
	cells = append(cells, label)
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf(format, v))
	}
	t.AddRow(cells...)
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "## %s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(t.Headers))
		for i := range t.Headers {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(rule)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the table as CSV (quoting cells containing commas).
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(c string) string {
		if strings.ContainsAny(c, ",\"\n") {
			return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		return c
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := writeRow(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// Series is one named line of (x, y) samples for plotting.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Plot renders series as a fixed-size ASCII scatter plot, the terminal
// stand-in for the paper's figures. Each series uses its own glyph.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Width  int
	Height int
	Series []Series
	// LogX plots the x axis logarithmically (multi-node sweeps).
	LogX bool
}

// NewPlot creates a plot with sensible terminal dimensions.
func NewPlot(title, xlabel, ylabel string) *Plot {
	return &Plot{Title: title, XLabel: xlabel, YLabel: ylabel, Width: 72, Height: 20}
}

// Add appends a series.
func (p *Plot) Add(name string, x, y []float64) {
	p.Series = append(p.Series, Series{Name: name, X: x, Y: y})
}

var glyphs = []byte{'o', '+', 'x', '*', '#', '@', '%', '&', '$', '~'}

// Write renders the plot.
func (p *Plot) Write(w io.Writer) error {
	if len(p.Series) == 0 {
		_, err := fmt.Fprintf(w, "## %s\n(no data)\n", p.Title)
		return err
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	tx := func(v float64) float64 {
		if p.LogX && v > 0 {
			return math.Log10(v)
		}
		return v
	}
	for _, s := range p.Series {
		for i := range s.X {
			xmin = math.Min(xmin, tx(s.X[i]))
			xmax = math.Max(xmax, tx(s.X[i]))
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if ymin > 0 {
		ymin = 0 // the paper's figures anchor the y axis at zero
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, p.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", p.Width))
	}
	for si, s := range p.Series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			cx := int((tx(s.X[i]) - xmin) / (xmax - xmin) * float64(p.Width-1))
			cy := int((s.Y[i] - ymin) / (ymax - ymin) * float64(p.Height-1))
			row := p.Height - 1 - cy
			if row >= 0 && row < p.Height && cx >= 0 && cx < p.Width {
				grid[row][cx] = g
			}
		}
	}
	if _, err := fmt.Fprintf(w, "## %s\n", p.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s (max %.4g)\n", p.YLabel, ymax); err != nil {
		return err
	}
	for _, row := range grid {
		if _, err := fmt.Fprintf(w, "|%s\n", string(row)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "+%s\n", strings.Repeat("-", p.Width)); err != nil {
		return err
	}
	xAxis := fmt.Sprintf("%s: %.4g .. %.4g", p.XLabel, untx(xmin, p.LogX), untx(xmax, p.LogX))
	if _, err := fmt.Fprintln(w, xAxis); err != nil {
		return err
	}
	var legend []string
	for si, s := range p.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", glyphs[si%len(glyphs)], s.Name))
	}
	_, err := fmt.Fprintf(w, "legend: %s\n\n", strings.Join(legend, " "))
	return err
}

func untx(v float64, log bool) float64 {
	if log {
		return math.Pow(10, v)
	}
	return v
}

// SeriesCSV writes multiple series with a shared x column to CSV:
// x, name1, name2, ... (series must share x grids; missing values are
// left empty).
func SeriesCSV(w io.Writer, xName string, series []Series) error {
	// Collect the union of x values in order of first appearance.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	headers := []string{xName}
	for _, s := range series {
		headers = append(headers, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(headers, ",")); err != nil {
		return err
	}
	for _, x := range xs {
		cells := []string{fmt.Sprintf("%g", x)}
		for _, s := range series {
			val := ""
			for i := range s.X {
				if s.X[i] == x {
					val = fmt.Sprintf("%g", s.Y[i])
					break
				}
			}
			cells = append(cells, val)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// SaveCSV writes a table as CSV to dir/name, creating dir; an empty dir
// writes nothing (the no-artifacts setting of every renderer).
func SaveCSV(dir, name string, t *Table) error {
	return saveFile(dir, name, t.WriteCSV)
}

// SaveSeriesCSV writes plot series as CSV to dir/name (see SeriesCSV);
// an empty dir writes nothing.
func SaveSeriesCSV(dir, name, xName string, series []Series) error {
	return saveFile(dir, name, func(w io.Writer) error { return SeriesCSV(w, xName, series) })
}

func saveFile(dir, name string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}
