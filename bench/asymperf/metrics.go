package main

// The metric catalogue is BENCHMARK.json at the repository root: the
// workload names and, per metric, its unit, direction and bound. The
// harness reads it at start. Every metric is defined on every workload,
// because a run reports the whole end-to-end list (untraced) or the
// whole per-layer list (traced) whichever workload it drives.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// catalogueFile is BENCHMARK.json's path from the repository root, where
// bench/run.sh runs the harness.
const catalogueFile = "BENCHMARK.json"

// metric is one catalogue entry. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// catalogue is the part of BENCHMARK.json the harness reads.
type catalogue struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	// EndToEnd is what an untraced run reports, PerLayer a traced one.
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadCatalogue(path string) (*catalogue, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Workloads) == 0 || len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no workloads or metrics", path)
	}
	return &c, nil
}

func (c *catalogue) workloadNames() []string {
	out := make([]string, len(c.Workloads))
	for i, w := range c.Workloads {
		out[i] = w.Name
	}
	return out
}

// omegaPin is the ω every cost column uses: the prior each workload
// pins (with an explicit K, so the persisted meter can never move k or
// the write ledger).
const omegaPin = 8

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted). NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), the spread rule the comparison reports.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
