// Package exp implements the experiment harness: one function per
// experiment (E1–E14, listed by All), each regenerating the
// table/series that validates one of the paper's theorems. The cmd/asymbench
// binary and the repository-root benchmarks both drive these functions.
//
// Every experiment takes a Config (sizes shrink in Quick mode so the whole
// suite runs in seconds under `go test`) and writes a formatted table.
// Numbers are deterministic for a fixed seed.
package exp

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
)

// Config controls experiment scale and output.
type Config struct {
	Quick bool   // smaller sweeps for tests/benches
	Seed  uint64 // base seed; all workloads derive from it
	CSV   bool   // emit comma-separated values instead of aligned text
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, cfg Config)
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{"E1", "RAM sort: O(n log n) reads, O(n) writes (§3)", E1RAMSort},
		{"E2", "PRAM sample sort: work and depth (Theorem 3.2)", E2PRAMSort},
		{"E3", "AEM mergesort vs Theorem 4.3 bounds", E3MergeSortBounds},
		{"E4", "Branching-factor sweep & Corollary 4.4 / Appendix A", E4KSweep},
		{"E5", "AEM sample sort vs Theorem 4.5 bounds", E5SampleSort},
		{"E6", "Buffer-tree priority queue & heapsort (Theorem 4.10)", E6BufferTree},
		{"E7", "Lemma 4.2 exact base-case bounds", E7Lemma42},
		{"E8", "Read-write LRU competitiveness (Lemma 2.1)", E8Lemma21},
		{"E9", "Cache-oblivious sort (Theorem 5.1)", E9COSort},
		{"E10", "Cache-oblivious FFT (§5.2)", E10COFFT},
		{"E11", "Matrix multiplication (Theorems 5.2, 5.3)", E11MatMul},
		{"E12", "Scheduler bounds: work stealing & PDF (§2)", E12Schedulers},
		{"E13", "Private-cache parallel sample sort speedup (§4.2)", E13Parallel},
		{"E14", "Ablations: step 6, Cole oracle, pointer placement", E14Ablations},
	}
}

// Lookup returns the experiment with the given ID (case-insensitive).
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// table accumulates rows and renders them aligned or as CSV.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *table) write(w io.Writer, cfg Config) {
	if cfg.CSV {
		fmt.Fprintln(w, strings.Join(t.header, ","))
		for _, r := range t.rows {
			fmt.Fprintln(w, strings.Join(r, ","))
		}
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.header, "\t"))
	for _, r := range t.rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
}

// section prints an experiment banner.
func section(w io.Writer, cfg Config, id, title, claim string) {
	if cfg.CSV {
		fmt.Fprintf(w, "# %s %s\n", id, title)
		return
	}
	fmt.Fprintf(w, "\n=== %s — %s ===\n", id, title)
	fmt.Fprintf(w, "Paper claim: %s\n\n", claim)
}

// verdict prints a pass/fail style observation line.
func verdict(w io.Writer, cfg Config, ok bool, format string, args ...interface{}) {
	if cfg.CSV {
		return
	}
	tag := "SHAPE OK"
	if !ok {
		tag = "SHAPE MISMATCH"
	}
	fmt.Fprintf(w, "[%s] %s\n", tag, fmt.Sprintf(format, args...))
}

// sizes returns quick or full size sweeps.
func sizes(cfg Config, quick, full []int) []int {
	if cfg.Quick {
		return quick
	}
	return full
}

// fmtRatio renders a/b with guard.
func fmtRatio(a, b uint64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// geoMeanGrowth reports last/first of a positive series (shape summary).
func geoMeanGrowth(vals []float64) float64 {
	if len(vals) < 2 || vals[0] == 0 {
		return 1
	}
	return vals[len(vals)-1] / vals[0]
}

// sortedKeys returns the sorted keys of a map. Every experiment that
// renders rows from a map must iterate it through this helper: Go's map
// order is randomized per run, and the tables are golden-stable.
func sortedKeys[K cmp.Ordered, T any](m map[K]T) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
