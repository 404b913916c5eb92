package main

// Self-time attribution over the traced run's span files: the harness
// spans (harness.trace.jsonl) and the program's own per-job traces. A
// span's self time is its duration minus the part of that interval its
// child spans cover.

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"asymsort/internal/obs"
)

// selfTime is one (source, span name) row of the attribution table.
type selfTime struct {
	source, name string
	count        int
	self, total  time.Duration
}

// selfTimes walks every *.trace.jsonl under dir. The source of a span is
// the file's directory relative to dir ("." for the harness).
func selfTimes(dir string) ([]selfTime, error) {
	rows := map[[2]string]*selfTime{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".trace.jsonl") {
			return err
		}
		src, _ := filepath.Rel(dir, filepath.Dir(path))
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, spans, err := obs.ReadJSONL(f)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		kids := map[int][]obs.ParsedSpan{}
		for _, s := range spans {
			if !s.Instant {
				kids[s.Parent] = append(kids[s.Parent], s)
			}
		}
		for _, s := range spans {
			if s.Instant {
				continue
			}
			k := [2]string{src, s.Name}
			r := rows[k]
			if r == nil {
				r = &selfTime{source: src, name: s.Name}
				rows[k] = r
			}
			r.count++
			r.total += time.Duration(s.DurUS) * time.Microsecond
			r.self += time.Duration(s.DurUS-coveredUS(s, kids[s.ID])) * time.Microsecond
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]selfTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].source != out[j].source {
			return out[i].source < out[j].source
		}
		return out[i].self > out[j].self
	})
	return out, nil
}

// coveredUS is how much of parent's interval its direct children cover:
// the length of the union of their intervals, clipped to the parent.
func coveredUS(parent obs.ParsedSpan, kids []obs.ParsedSpan) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	pLo, pHi := parent.StartUS, parent.StartUS+parent.DurUS
	for _, s := range kids {
		lo, hi := max(s.StartUS, pLo), min(s.StartUS+s.DurUS, pHi)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
	var covered, end int64 = 0, pLo
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return covered
}

// workerSource folds the per-worker trace directories of a cluster run
// into one source, so the table shows one row per worker span name.
func workerSource(src string) string {
	if strings.HasPrefix(src, "worker") {
		return "workers"
	}
	return src
}

func printSelfTimes(w io.Writer, dir string, rows []selfTime) {
	merged := map[[2]string]*selfTime{}
	var order [][2]string
	for _, r := range rows {
		k := [2]string{workerSource(r.source), r.name}
		m := merged[k]
		if m == nil {
			m = &selfTime{source: k[0], name: r.name}
			merged[k] = m
			order = append(order, k)
		}
		m.count += r.count
		m.self += r.self
		m.total += r.total
	}
	fmt.Fprintf(w, "-- self time by span (span minus its children), traces in %s --\n", dir)
	fmt.Fprintf(w, "  %-12s %-10s %8s %12s %12s\n", "source", "span", "count", "self_s", "total_s")
	for _, k := range order {
		m := merged[k]
		fmt.Fprintf(w, "  %-12s %-10s %8d %12.3f %12.3f\n", m.source, m.name, m.count, m.self.Seconds(), m.total.Seconds())
	}
}
