package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// summarizeRuns reads the result line (the last line) of every file
// matching glob, one run each, and prints each metric's median, quartiles
// and interquartile range as a share of the median: the spread by which
// repeated runs of the benchmark are judged.
func summarizeRuns(w io.Writer, glob string) error {
	files, err := filepath.Glob(glob)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no files match %s", glob)
	}
	values := map[string][]float64{}
	units := map[string]string{}
	incorrect := 0
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("%s: last line is not a result: %w", f, err)
		}
		if !res.Correct {
			incorrect++
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	fmt.Fprintf(w, "%d runs, %d failed the correctness gate\n", len(files), incorrect)
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		xs := values[name]
		q, err := quartiles(xs)
		if err != nil {
			fmt.Fprintf(w, "%-26s n=%d: %v\n", name, len(xs), err)
			continue
		}
		spread := "n/a"
		if s, err := relativeSpread(xs); err == nil {
			spread = fmt.Sprintf("%.4f", s)
		}
		fmt.Fprintf(w, "%-26s n=%-3d median %12.4f  q1 %12.4f  q3 %12.4f  spread %s  %s\n",
			name, len(xs), q[1], q[0], q[2], spread, units[name])
	}
	return nil
}
