package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"asymsort/internal/obs"
	"asymsort/internal/seq"
	"asymsort/internal/wire"
)

func loadTestCatalogue(t *testing.T) *catalogue {
	t.Helper()
	cat, err := loadCatalogue(filepath.Join("..", "..", catalogueFile))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestWorkloadsShort runs every workload BENCHMARK.json names untraced
// and traced at the short scale: every operation verifies, every
// catalogued metric is emitted, and the direct engine runs reproduce
// their exact write ledgers (three write passes for the classical plan,
// two for the write-efficient one).
func TestWorkloadsShort(t *testing.T) {
	cat := loadTestCatalogue(t)
	dir := t.TempDir()
	wantWrites := map[string]float64{
		"ext-classic-p1":  3e6 / float64(shortScale.extBlock),
		"ext-writeeff-p2": 2e6 / float64(shortScale.extBlock),
	}
	for _, name := range cat.workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				var out bytes.Buffer
				o := &options{workload: name, seed: 7, seconds: 0.2, trace: trace, buildDir: dir, short: true, cat: cat, out: &out}
				rep, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				res := rep.res
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := cat.EndToEnd
				if trace {
					want = cat.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: emitted %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
					}
				}
				if bw, ok := wantWrites[name]; ok && !trace {
					if got := res.Metrics["block_writes_per_mrec"].Value; got != bw {
						t.Errorf("block_writes_per_mrec = %v, want exactly %v", got, bw)
					}
				}
				if trace {
					if _, err := os.Stat(filepath.Join(dir, "trace", name, "harness.trace.jsonl")); err != nil {
						t.Errorf("no harness span file: %v", err)
					}
				}
			})
		}
	}
}

func frame(t *testing.T, recs []seq.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := wire.NewWriter(&buf, int64(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteRecords(recs); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func digest(recs []seq.Record, keysOnly bool) checksum {
	var c checksum
	for _, r := range recs {
		if keysOnly {
			c.add(r.Key, 0)
		} else {
			c.add(r.Key, r.Val)
		}
	}
	return c
}

func lines(recs []seq.Record, withVals bool) []byte {
	var b strings.Builder
	for _, r := range recs {
		b.WriteString(strconv.FormatUint(r.Key, 10))
		if withVals {
			b.WriteString(" " + strconv.FormatUint(r.Val, 10))
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

func ledgerHeader(writes, plan string) http.Header {
	h := http.Header{}
	h.Set("X-Asymsortd-Writes", writes)
	h.Set("X-Asymsortd-Plan-Writes", plan)
	return h
}

// TestVerifierRejects checks that the verifier accepts a correct
// response and rejects each kind of wrong one.
func TestVerifierRejects(t *testing.T) {
	in := []seq.Record{{Key: 5, Val: 0}, {Key: 1, Val: 1}, {Key: 9, Val: 2}, {Key: 3, Val: 3}}
	sorted := []seq.Record{{Key: 1, Val: 1}, {Key: 3, Val: 3}, {Key: 5, Val: 0}, {Key: 9, Val: 2}}
	bin := &expect{kernel: "sort", binary: true, n: len(in), sum: digest(in, false), ledger: true}
	txt := &expect{kernel: "sort", n: len(in), sum: digest(in, true)}
	semiIn := []seq.Record{{Key: 2, Val: 0}, {Key: 1, Val: 1}, {Key: 2, Val: 2}}
	semi := &expect{kernel: "semisort", n: len(semiIn), ref: []seq.Record{{Key: 1, Val: 1}, {Key: 2, Val: 2}}}
	ok := ledgerHeader("12", "12")

	for _, c := range []struct {
		name    string
		e       *expect
		h       http.Header
		body    []byte
		wantErr string
	}{
		{"binary sorted", bin, ok, frame(t, sorted), ""},
		{"text sorted", txt, http.Header{}, lines(sorted, false), ""},
		{"semisort matches", semi, http.Header{}, lines(semi.ref, true), ""},
		{"binary unsorted", bin, ok, frame(t, in), "not sorted"},
		{"text unsorted", txt, http.Header{}, lines(in, false), "not sorted"},
		{"dropped record", bin, ok, frame(t, sorted[1:]), "has 3 records"},
		{"swapped payload", bin, ok, frame(t, []seq.Record{{Key: 1, Val: 1}, {Key: 3, Val: 3}, {Key: 5, Val: 2}, {Key: 9, Val: 0}}), "not a permutation"},
		{"wrong semisort row", semi, http.Header{}, lines([]seq.Record{{Key: 1, Val: 1}, {Key: 2, Val: 3}}, true), "row 1"},
		{"missing semisort row", semi, http.Header{}, lines(semi.ref[:1], true), "has 1 rows"},
		{"writes != plan writes", bin, ledgerHeader("13", "12"), frame(t, sorted), "!= planned writes"},
		{"no ledger on an ext job", bin, http.Header{}, frame(t, sorted), "no write ledger"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := verifyResponse(c.e, c.h, c.body)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("rejected a correct response: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("error %v, want one containing %q", err, c.wantErr)
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the spread rule the README quotes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 4, 7, 2}, 1.5, 4, 8.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestCoveredUS checks self time subtracts the union of the children's
// intervals, clipped to the parent.
func TestCoveredUS(t *testing.T) {
	parent := obs.ParsedSpan{ID: 1, StartUS: 100, DurUS: 100}
	kids := []obs.ParsedSpan{
		{Parent: 1, StartUS: 120, DurUS: 30}, // [120,150)
		{Parent: 1, StartUS: 140, DurUS: 20}, // overlaps to 160
		{Parent: 1, StartUS: 190, DurUS: 50}, // clipped to 200
	}
	if got := coveredUS(parent, kids); got != 50 {
		t.Fatalf("covered %d µs, want 50", got)
	}
}

// TestCompareFlagsRegression checks each verdict: a steady metric
// passes, a median worsened beyond the bound regresses, a noisy old side
// leaves an overlapping shift unresolved but still flags a new side that
// is worse in every run, and a new side with more failures fails
// whatever its numbers.
func TestCompareFlagsRegression(t *testing.T) {
	cat := &catalogue{EndToEnd: []metric{{"throughput_mb_s", "MB/s", "higher", 0.1}}}
	path := filepath.Join(t.TempDir(), "runs.json")
	record := func(set string, failed int, tputs ...float64) {
		for i, tput := range tputs {
			rep := &report{res: result{Correct: true, Attempted: 10, Metrics: map[string]value{
				"throughput_mb_s": {Value: tput, Unit: "MB/s"},
			}}}
			if i < failed {
				// A failed run reports what it could not measure as 0.
				rep.res.Correct, rep.res.Failed = false, 3
			}
			if err := appendRecord(path, set, &options{workload: "ext-classic-p1", seed: uint64(i)}, rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	record("steady", 0, 100, 101, 99, 100, 102)
	record("slow", 0, 70, 71, 69, 70, 72)
	record("noisy", 0, 60, 100, 140, 80, 120) // spread 60%
	record("noisy-shift", 0, 45, 85, 125, 65, 105)
	record("noisy-disjoint", 0, 30, 35, 40, 45, 50)
	record("failing", 1, 0, 100, 101, 99, 100)

	for _, c := range []struct {
		old, new string
		wantErr  bool
		want     string
	}{
		{"steady", "steady", false, "within 10%"},
		{"steady", "slow", true, "REGRESSED beyond 10%"},
		{"noisy", "noisy-shift", false, "unresolved"},
		{"noisy", "noisy-disjoint", true, "REGRESSED (every new run worse"},
		{"noisy-disjoint", "noisy", false, "better (every new run better"},
		{"steady", "failing", true, "FAILED"},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, cat, path+":"+c.old, path+":"+c.new)
		if (err != nil) != c.wantErr || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s vs %s: err %v, want error %v and %q in\n%s", c.old, c.new, err, c.wantErr, c.want, out.String())
		}
	}
}

// TestServeScheduleRunsEveryBodyOnce checks that one cycle of the
// serve-mixed schedule sends every pool body exactly once, which is what
// makes the ledgers of a window of whole cycles exact.
func TestServeScheduleRunsEveryBodyOnce(t *testing.T) {
	pools := map[string][]*svcJob{}
	total := 0
	for _, d := range []string{"text", "binary"} {
		for key, n := range map[string]int{"small-sort-": smallPerCycle, "bulk-sort-": bulkPerCycle, "bulk-semisort-": semiPerCycle} {
			for range n {
				pools[key+d] = append(pools[key+d], &svcJob{})
				total++
			}
		}
	}
	sched := serveSchedule(pools)
	seen := map[*svcJob]bool{}
	for _, j := range sched {
		seen[j] = true
	}
	if len(sched) != total || len(seen) != total {
		t.Fatalf("a cycle sends %d jobs over %d distinct bodies, want %d of each", len(sched), len(seen), total)
	}
}
