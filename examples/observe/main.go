// Observability: one job, three views.
//
// This example boots the full asymsortd service in-process — budget
// broker, job engine, HTTP surface — with tracing enabled and a shared
// metrics registry, drives one external-memory sort job through it,
// and then reads the job back through each observability surface:
//
//   - /stats: the finished job's phase-wall breakdown (queue, stage,
//     sort, stream) beside its block-IO ledger;
//   - the exported trace: the span tree (job → stage/queue/run → form,
//     merge per level → stream, with lease events), printed with per-span
//     walls and ledger attributes — the same tree the job-<id>.chrome.json
//     export renders in https://ui.perfetto.dev;
//   - /metrics: the Prometheus exposition, scraped and parsed with the
//     repository's own strict reader.
//
// It closes by checking the layer's defining identity: the block
// writes recorded on the trace's form + merge spans sum exactly to the
// job's measured write ledger on /stats, which equals the simulated
// AEM plan. The trace is not an estimate alongside the ledger — it is
// the ledger, cut at phase boundaries.
//
// Run: go run ./examples/observe
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"asymsort/internal/obs"
	"asymsort/internal/serve"
	"asymsort/internal/xrand"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "observe: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		n        = 120000 // job size in records
		envelope = 16384  // global budget in records — forces the ext model
		block    = 64
	)
	traceDir, err := os.MkdirTemp("", "observe-traces-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(traceDir)
	tmp, err := os.MkdirTemp("", "observe-spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// The daemon, in-process: one registry shared by the broker's
	// envelope gauges and the engine's job/IO/HTTP metrics.
	reg := obs.NewRegistry()
	broker, err := serve.NewBroker(serve.BrokerConfig{
		Mem: envelope, Procs: 2, MinLease: 16 * block, Metrics: reg,
	})
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(serve.ServerConfig{
		Broker: broker, Block: block, Omega: 8, TmpDir: tmp,
		Metrics: reg, TraceDir: traceDir,
	})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One sort job: n uniform keys, newline-decimal text, through the
	// same route a curl would use.
	var body strings.Builder
	rng := xrand.New(7)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&body, "%d\n", rng.Next()>>1)
	}
	resp, err := http.Post(ts.URL+"/sort?model=ext", "text/plain", strings.NewReader(body.String()))
	if err != nil {
		return err
	}
	out := 0
	buf := make([]byte, 1<<16)
	for {
		m, rerr := resp.Body.Read(buf)
		for _, c := range buf[:m] {
			if c == '\n' {
				out++
			}
		}
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	fmt.Printf("sorted %d records through POST /sort (model %s, grant %s records)\n\n",
		out, resp.Header.Get("X-Asymsortd-Model"), resp.Header.Get("X-Asymsortd-Mem"))

	// View 1 — /stats: the finished job's phase walls and ledger.
	var snap struct {
		Jobs []struct {
			ID         int    `json:"id"`
			State      string `json:"state"`
			QueueMS    int64  `json:"queue_ms"`
			StageMS    int64  `json:"stage_ms"`
			SortMS     int64  `json:"sort_ms"`
			StreamMS   int64  `json:"stream_ms"`
			TotalMS    int64  `json:"total_ms"`
			Reads      uint64 `json:"reads"`
			Writes     uint64 `json:"writes"`
			PlanWrites uint64 `json:"plan_writes"`
			Levels     int    `json:"levels"`
		} `json:"jobs"`
	}
	if err := getJSON(ts.URL+"/stats", &snap); err != nil {
		return err
	}
	if len(snap.Jobs) != 1 {
		return fmt.Errorf("expected 1 job on /stats, found %d", len(snap.Jobs))
	}
	job := snap.Jobs[0]
	fmt.Println("/stats phase breakdown:")
	fmt.Printf("  stage %dms | queue %dms | sort %dms | stream %dms | total %dms\n",
		job.StageMS, job.QueueMS, job.SortMS, job.StreamMS, job.TotalMS)
	fmt.Printf("  ledger: %d block reads, %d block writes (simulated plan %d), %d merge levels\n\n",
		job.Reads, job.Writes, job.PlanWrites, job.Levels)

	// View 2 — the exported span tree. job-<id>.chrome.json next to it
	// is the same tree for Perfetto.
	f, err := os.Open(filepath.Join(traceDir, fmt.Sprintf("job-%d.trace.jsonl", job.ID)))
	if err != nil {
		return err
	}
	name, spans, err := obs.ReadJSONL(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("trace %q (%d spans; Chrome export: %s):\n", name, len(spans),
		filepath.Join(traceDir, fmt.Sprintf("job-%d.chrome.json", job.ID)))
	printTree(spans)

	// The identity: span ledger == /stats ledger == simulated plan.
	var spanWrites uint64
	for _, sp := range spans {
		if sp.Name == "form" || sp.Name == "merge" {
			spanWrites += uint64(sp.Attrs["writes"])
		}
	}
	fmt.Printf("\nledger identity: form+merge span writes %d == /stats writes %d == plan %d",
		spanWrites, job.Writes, job.PlanWrites)
	if spanWrites != job.Writes || job.Writes != job.PlanWrites {
		fmt.Println("  — VIOLATED")
		return fmt.Errorf("ledger identity violated")
	}
	fmt.Println("  ✓")

	// View 3 — /metrics, parsed with the strict exposition reader.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		return err
	}
	msnap, err := obs.ParseProm(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		return err
	}
	fmt.Println("\n/metrics excerpt:")
	for _, metric := range []string{
		"asymsortd_jobs_total", "asymsortd_queue_wait_seconds_count",
		"asymsortd_block_writes_total", "asymsortd_grant_bytes_total",
		"asymsortd_http_requests_total",
	} {
		fmt.Printf("  %-42s %g\n", metric, msnap.Sum(metric))
	}
	return nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// printTree renders the span forest indented by parentage, instants as
// event markers, and every span's attributes in key order.
func printTree(spans []obs.ParsedSpan) {
	kids := map[int][]obs.ParsedSpan{}
	for _, sp := range spans {
		kids[sp.Parent] = append(kids[sp.Parent], sp)
	}
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		siblings := kids[parent]
		for i := 0; i < len(siblings); i++ {
			sp := siblings[i]
			indent := strings.Repeat("  ", depth+1)
			// Collapse long runs of same-name childless spans (the
			// engine emits one "pass" span per selection pass — hundreds
			// on a small-memory run).
			run := i
			for run < len(siblings) && siblings[run].Name == sp.Name && len(kids[siblings[run].ID]) == 0 {
				run++
			}
			if run-i > 4 {
				var tot int64
				for _, s := range siblings[i:run] {
					tot += s.DurUS
				}
				fmt.Printf("%s%s ×%d (%dus total)  — first: %dus%s\n",
					indent, sp.Name, run-i, tot, sp.DurUS, attrString(sp.Attrs))
				i = run - 1
				continue
			}
			if sp.Instant {
				fmt.Printf("%s• %s @%dus%s\n", indent, sp.Name, sp.StartUS, attrString(sp.Attrs))
				continue
			}
			fmt.Printf("%s%s %dus%s\n", indent, sp.Name, sp.DurUS, attrString(sp.Attrs))
			walk(sp.ID, depth+1)
		}
	}
	walk(0, 0)
}

func attrString(attrs map[string]int64) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, attrs[k])
	}
	return "  {" + strings.Join(parts, " ") + "}"
}
