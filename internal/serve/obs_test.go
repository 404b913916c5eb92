package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"asymsort/internal/obs"
)

// newObsService is the tracing/metrics variant of newTestService: the
// broker and server share one registry and every job's trace is
// exported to a private directory.
func newObsService(t *testing.T, mem, procs, block int) (*testService, *obs.Registry, string) {
	t.Helper()
	reg := obs.NewRegistry()
	b, err := NewBroker(BrokerConfig{Mem: mem, Procs: procs, MinLease: 16 * block, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	traceDir := t.TempDir()
	srv, err := NewServer(ServerConfig{
		Broker: b, Block: block, Omega: 8, TmpDir: tmp, Metrics: reg, TraceDir: traceDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testService{b: b, srv: srv, ts: ts, tmp: tmp}, reg, traceDir
}

// scrape fetches /metrics and parses it through the strict reader, so
// every scrape in these tests re-validates the exposition format.
func scrape(t *testing.T, url string) *obs.Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics content type %q", ct)
	}
	snap, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return snap
}

// TestTraceLedgerIdentity is the acceptance check of the tracing layer:
// a served ext job's exported trace must carry the engine's block-write
// ledger, span by span — the form span plus the merge-level spans sum
// exactly to the job's measured writes on /stats, which in turn equal
// the simulated plan. The trace is not a parallel estimate; it is the
// same ledger cut at phase boundaries.
func TestTraceLedgerIdentity(t *testing.T) {
	s, _, traceDir := newObsService(t, 1<<14, 2, 64)
	keys := genKeys(60000, 5) // needs 120000 resident → ext under a 16384 envelope
	code, body, hdr := s.postSort(t, t.Context(), "", keysText(keys))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if hdr.Get("X-Asymsortd-Model") != "ext" {
		t.Fatalf("model %q, want ext", hdr.Get("X-Asymsortd-Model"))
	}
	if body != sortedText(keys) {
		t.Fatal("response is not the sorted key text")
	}

	snap := s.stats(t)
	if len(snap.Jobs) != 1 {
		t.Fatalf("want 1 job on /stats, have %d", len(snap.Jobs))
	}
	job := snap.Jobs[0]
	if job.Writes == 0 || job.Writes != job.PlanWrites {
		t.Fatalf("/stats ledger: writes=%d plan=%d", job.Writes, job.PlanWrites)
	}

	f, err := os.Open(filepath.Join(traceDir, fmt.Sprintf("job-%d.trace.jsonl", job.ID)))
	if err != nil {
		t.Fatalf("trace not exported: %v", err)
	}
	defer f.Close()
	name, spans, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if name == "" || len(spans) == 0 {
		t.Fatalf("empty trace %q (%d spans)", name, len(spans))
	}

	// The phase skeleton: one root job span, and stage/queue/run/stream
	// plus the engine's form span all beneath it.
	byName := map[string]int{}
	var ledger uint64
	mergeLevels := map[int64]bool{}
	for _, sp := range spans {
		byName[sp.Name]++
		switch sp.Name {
		case "form", "merge":
			ledger += uint64(sp.Attrs["writes"])
			if sp.Name == "merge" {
				if sp.Attrs["fanin"] < 2 {
					t.Fatalf("merge span with fan-in %d", sp.Attrs["fanin"])
				}
				mergeLevels[sp.Attrs["level"]] = true
			}
		}
	}
	for _, want := range []string{"job", "stage", "queue", "run", "form", "merge", "stream", "lease-grant"} {
		if byName[want] == 0 {
			t.Fatalf("no %q span in trace (have %v)", want, byName)
		}
	}
	if byName["merge"] != len(mergeLevels) {
		t.Fatalf("%d merge spans but %d distinct levels", byName["merge"], len(mergeLevels))
	}
	if job.Levels != len(mergeLevels) {
		t.Fatalf("trace has %d merge levels, /stats says %d", len(mergeLevels), job.Levels)
	}
	if ledger != job.Writes {
		t.Fatalf("span ledger sums to %d block writes, /stats measured %d (plan %d)",
			ledger, job.Writes, job.PlanWrites)
	}

	// The Chrome export of the same job must be valid JSON with one
	// event per span.
	cf, err := os.ReadFile(filepath.Join(traceDir, fmt.Sprintf("job-%d.chrome.json", job.ID)))
	if err != nil {
		t.Fatalf("chrome trace not exported: %v", err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(cf, &chrome); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(chrome.TraceEvents) != len(spans) {
		t.Fatalf("chrome trace has %d events, JSONL %d spans", len(chrome.TraceEvents), len(spans))
	}
}

// TestStatsMetricsUnderChurn scrapes /stats and /metrics continuously
// while a batch of concurrent jobs runs — the race check on the whole
// observability read path (registry reads, live PhaseMS derivation,
// exposition rendering) against job-lifecycle writes. It then asserts
// the drain invariants the asymload -metrics flag enforces in CI.
func TestStatsMetricsUnderChurn(t *testing.T) {
	s, _, _ := newObsService(t, 1<<14, 2, 64)
	const jobs = 6

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	scrapers.Add(2)
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := scrape(t, s.ts.URL)
			if len(snap.Samples) == 0 {
				t.Error("empty exposition mid-churn")
				return
			}
		}
	}()
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(s.ts.URL + "/stats")
			if err != nil {
				t.Error(err)
				return
			}
			var snap statsSnapshot
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
				return
			}
			for _, j := range snap.Jobs {
				// Live jobs must expose a phase and a sane elapsed wall.
				if j.Live() && j.PhaseMS < 0 {
					t.Errorf("live job %d in %q has phase_ms %d", j.ID, j.State, j.PhaseMS)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := genKeys(20000+1000*i, int64(100+i)) // all ext under the 16384 envelope
			code, body, _ := s.postSort(t, t.Context(), "", keysText(keys))
			if code != http.StatusOK {
				t.Errorf("job %d: status %d: %s", i, code, body)
				return
			}
			if body != sortedText(keys) {
				t.Errorf("job %d: bad sort", i)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	if t.Failed() {
		return
	}

	// Post-drain: the job counter moved by exactly the batch size and
	// the envelope gauges are back to zero (poll briefly — the counter
	// increments a hair after the client sees the body end).
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := scrape(t, s.ts.URL)
		ok := snap.Sum("asymsortd_jobs_total") == jobs &&
			snap.Sum("asymsortd_queue_depth") == 0 &&
			snap.Sum("asymsortd_leases") == 0 &&
			snap.Sum("asymsortd_grant_bytes") == 0
		if ok {
			if v, found := snap.Get("asymsortd_jobs_total",
				map[string]string{"kernel": "sort", "model": "ext", "outcome": "done"}); !found || v != jobs {
				t.Fatalf("asymsortd_jobs_total{kernel=sort,model=ext,outcome=done} = %g, want %d", v, jobs)
			}
			if snap.Sum("asymsortd_queue_wait_seconds_count") != jobs {
				t.Fatalf("queue wait histogram counted %g jobs, want %d",
					snap.Sum("asymsortd_queue_wait_seconds_count"), jobs)
			}
			if snap.Sum("asymsortd_block_writes_total") == 0 {
				t.Fatal("no block writes recorded for an all-ext batch")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain invariants not reached: jobs_total=%g queue=%g leases=%g grant=%g",
				snap.Sum("asymsortd_jobs_total"), snap.Sum("asymsortd_queue_depth"),
				snap.Sum("asymsortd_leases"), snap.Sum("asymsortd_grant_bytes"))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHealthzBuildInfo: /healthz carries build identity and uptime, and
// the shared registry exports the uptime gauge.
func TestHealthzBuildInfo(t *testing.T) {
	s, _, _ := newObsService(t, 1<<14, 2, 64)
	resp, err := http.Get(s.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var h healthSnapshot
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz does not parse: %v (%s)", err, body)
	}
	if h.Status != "ok" {
		t.Fatalf("status %q", h.Status)
	}
	if h.Build.Go == "" || h.Build.Version == "" {
		t.Fatalf("healthz build info incomplete: %+v", h.Build)
	}
	if h.UptimeMS < 0 {
		t.Fatalf("uptime %d", h.UptimeMS)
	}
	snap := scrape(t, s.ts.URL)
	if v, ok := snap.Get("asymsortd_uptime_seconds", nil); !ok || v < 0 {
		t.Fatalf("asymsortd_uptime_seconds = %g, %v", v, ok)
	}
	// The scrape itself is traffic: the HTTP metrics must label it.
	snap = scrape(t, s.ts.URL)
	if v, ok := snap.Get("asymsortd_http_requests_total",
		map[string]string{"route": "/metrics", "code": "200"}); !ok || v < 1 {
		t.Fatalf("no /metrics route sample in HTTP metrics (v=%g ok=%v)", v, ok)
	}
}
