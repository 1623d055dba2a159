package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// jsonTable is the on-disk shape of one experiment result.
type jsonTable struct {
	Exp     string     `json:"exp"`
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	Metrics []Metric   `json:"metrics,omitempty"`
}

// WriteJSON writes tbl as dir/BENCH_<exp>.json and returns the path.
func WriteJSON(dir, exp string, tbl *Table) (string, error) {
	b, err := json.MarshalIndent(jsonTable{
		Exp:     exp,
		ID:      tbl.ID,
		Title:   tbl.Title,
		Header:  tbl.Header,
		Rows:    tbl.Rows,
		Notes:   tbl.Notes,
		Metrics: tbl.Metrics,
	}, "", "  ")
	if err != nil {
		return "", fmt.Errorf("bench: encode %s: %w", exp, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+exp+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
