package main

// Results files and the comparison of two sets of runs. A results file
// holds runs of one or more labelled sets (-record file -set label);
// -compare reads old.json[:set] and new.json[:set] and prints, per
// workload and end-to-end metric, each side's median and quartiles, the
// old side's spread, and a verdict against the metric's bound.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
)

type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

type runRecord struct {
	Set      string         `json:"set"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    int            `json:"trace"`
	Host     string         `json:"host"`
	Result   result         `json:"result"`
	Detail   map[string]any `json:"detail,omitempty"`
}

func loadResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendRecord adds one run to the results file at path, creating it.
func appendRecord(path, set string, o *options, rep *report) error {
	rf, err := loadResults(path)
	if errors.Is(err, os.ErrNotExist) {
		rf, err = &resultsFile{}, nil
	}
	if err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	rf.Runs = append(rf.Runs, runRecord{
		Set: set, Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: trace,
		Host:   fmt.Sprintf("%s/%s %d CPUs, GOMAXPROCS %d, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
		Result: rep.res, Detail: finite(rep.detail).(map[string]any),
	})
	raw, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// finite drops the NaN and infinite numbers JSON cannot carry (a median
// of an empty sample) from a detail tree.
func finite(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := map[string]any{}
		for k, x := range t {
			if f, ok := x.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
				continue
			}
			out[k] = finite(x)
		}
		return out
	case map[string]float64:
		out := map[string]float64{}
		for k, f := range t {
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				out[k] = f
			}
		}
		return out
	}
	return v
}

// side is one workload's runs on one side of a comparison. Only correct
// runs give metric samples: a run that failed reports unmeasured metrics
// as 0, which would read as a gain on a lower-is-better metric.
type side struct {
	samples   map[string][]float64
	runs      int
	badRuns   int // runs that were not correct
	failedOps int // failed operations over all runs
}

// sidesOf reads the runs a "path[:set]" spec names, by workload.
func sidesOf(spec string, trace int) (map[string]*side, error) {
	path, set, _ := strings.Cut(spec, ":")
	rf, err := loadResults(path)
	if err != nil {
		return nil, err
	}
	out := map[string]*side{}
	for _, r := range rf.Runs {
		if r.Trace != trace || (set != "" && r.Set != set) {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{samples: map[string][]float64{}}
			out[r.Workload] = s
		}
		s.runs++
		s.failedOps += r.Result.Failed
		if !r.Result.Correct {
			s.badRuns++
			continue
		}
		for name, v := range r.Result.Metrics {
			s.samples[name] = append(s.samples[name], v.Value)
		}
	}
	return out, nil
}

// verdict judges one end-to-end metric's new samples b against its old
// samples a. When the old side's spread is within the bound, the new
// median may worsen by at most the bound. When it is not, a median
// shift says nothing and the metric is unresolved, unless the two
// samples do not overlap.
func verdict(m metric, a, b []float64) (text string, regressed bool) {
	allWorse := slices.Min(b) > slices.Max(a)
	allBetter := slices.Max(b) < slices.Min(a)
	if m.Better == "higher" {
		allWorse, allBetter = allBetter, allWorse
	}
	switch {
	case spreadOf(a) > m.Bound && allWorse:
		return "REGRESSED (every new run worse than every old run)", true
	case spreadOf(a) > m.Bound && allBetter:
		return "better (every new run better than every old run)", false
	case spreadOf(a) > m.Bound:
		return "unresolved (old spread above bound)", false
	case worseBy(m, a, b) > m.Bound:
		return fmt.Sprintf("REGRESSED beyond %.3g%%", 100*m.Bound), true
	}
	return fmt.Sprintf("within %.3g%%", 100*m.Bound), false
}

// worseBy is how much worse the new median is than the old one, as a
// share of the old; negative when it is better.
func worseBy(m metric, a, b []float64) float64 {
	_, a2, _ := quartiles(a)
	_, b2, _ := quartiles(b)
	worse := (b2 - a2) / math.Abs(a2)
	if m.Better == "higher" {
		worse = -worse
	}
	return worse
}

// spreadOf is the distance between the quartiles as a share of the
// median.
func spreadOf(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// compareFiles prints the comparison. It returns an error when a metric
// regressed, or when the new side failed more runs or operations than
// the old one on some workload.
func compareFiles(w io.Writer, cat *catalogue, oldSpec, newSpec string) error {
	regressed, failed := 0, 0
	for trace, kind := range []struct {
		title string
		cat   []metric
	}{{"end-to-end", cat.EndToEnd}, {"per-layer", cat.PerLayer}} {
		old, err := sidesOf(oldSpec, trace)
		if err != nil {
			return err
		}
		cur, err := sidesOf(newSpec, trace)
		if err != nil {
			return err
		}
		var wls []string
		for wl := range old {
			if cur[wl] != nil {
				wls = append(wls, wl)
			}
		}
		sort.Strings(wls)
		for _, wl := range wls {
			a, b := old[wl], cur[wl]
			fmt.Fprintf(w, "== %s (%s) — old %s, new %s ==\n", wl, kind.title, oldSpec, newSpec)
			fmt.Fprintf(w, "  runs: old %d (%d not correct, %d failed ops), new %d (%d not correct, %d failed ops)\n",
				a.runs, a.badRuns, a.failedOps, b.runs, b.badRuns, b.failedOps)
			if b.badRuns > a.badRuns || b.failedOps > a.failedOps {
				fmt.Fprintln(w, "  FAILED: the new side has more failures than the old side")
				failed++
			}
			fmt.Fprintf(w, "  %-34s %5s %12s %12s %12s %5s %12s %12s %12s %8s %8s  %s\n",
				"metric", "n", "old q1", "old median", "old q3", "n", "new q1", "new median", "new q3", "spread", "worse", "verdict")
			for _, m := range kind.cat {
				as, bs := a.samples[m.Name], b.samples[m.Name]
				if len(as) == 0 || len(bs) == 0 {
					continue
				}
				a1, a2, a3 := quartiles(as)
				b1, b2, b3 := quartiles(bs)
				text := ""
				if trace == 0 {
					var bad bool
					text, bad = verdict(m, as, bs)
					if bad {
						regressed++
					}
				}
				fmt.Fprintf(w, "  %-34s %5d %12.4g %12.4g %12.4g %5d %12.4g %12.4g %12.4g %7.2f%% %7.2f%%  %s\n",
					m.Name, len(as), a1, a2, a3, len(bs), b1, b2, b3, 100*spreadOf(as), 100*worseBy(m, as, bs), text)
			}
		}
	}
	if regressed > 0 || failed > 0 {
		return fmt.Errorf("%d metric(s) regressed, %d workload(s) with more failures", regressed, failed)
	}
	return nil
}
