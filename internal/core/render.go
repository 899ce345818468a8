package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Result is one regenerated table or figure: a named grid of cells plus
// free-form notes (paper-vs-measured commentary).
type Result struct {
	// Name is the experiment id, e.g. "fig10" or "table5".
	Name string
	// Title echoes the paper's caption.
	Title string
	// Header labels the columns.
	Header []string
	// Rows are the data cells, already formatted.
	Rows [][]string
	// Notes carry paper-vs-measured commentary.
	Notes []string
	// Metrics carries the experiment's numbers in machine-readable form:
	// the reproduced values the fidelity scoreboard reads, or headlines
	// such as "goodput_qps" (sushi-bench -json). Nil for experiments
	// without a number.
	Metrics map[string]float64
}

// WriteTo renders the result as an aligned text table.
func (r *Result) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.Name, r.Title)
	// Widths count runes, so cells such as "≥ 1" stay aligned.
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - utf8.RuneCountInString(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the result to a string.
func (r *Result) String() string {
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		return fmt.Sprintf("render error: %v", err)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func ms(v float64) string { return fmt.Sprintf("%.3f", v*1e3) }
func mb(v int64) string   { return fmt.Sprintf("%.2f", float64(v)/(1<<20)) }

// WriteCSV renders the result as CSV (header row first). Notes are
// emitted as trailing comment lines prefixed with '#', which standard
// readers can skip.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Header); err != nil {
		return fmt.Errorf("csv header: %w", err)
	}
	for i, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}
