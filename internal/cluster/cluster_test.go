package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asymsort/internal/obs"
	"asymsort/internal/seq"
	"asymsort/internal/serve"
	"asymsort/internal/wire"
)

// newWorker spins up one real asymsortd job engine (broker + server)
// on an httptest listener — exactly what a cluster worker is.
func newWorker(t *testing.T, mem int) *httptest.Server {
	return newWorkerIn(t, mem, t.TempDir())
}

// newWorkerIn is newWorker with tmp as the worker's spill directory.
func newWorkerIn(t *testing.T, mem int, tmp string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newEngine(t, mem, tmp).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newEngine builds the job engine a worker serves.
func newEngine(t *testing.T, mem int, tmp string) *serve.Server {
	t.Helper()
	b, err := serve.NewBroker(serve.BrokerConfig{Mem: mem, Procs: 2, MinLease: 16 * 64})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.ServerConfig{Broker: b, Block: 64, Omega: 8, TmpDir: tmp})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// newCoordinator wires a coordinator over the worker URLs on an
// httptest listener.
func newCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.TmpDir == "" {
		cfg.TmpDir = t.TempDir()
	}
	if cfg.probeTimeout == 0 {
		cfg.probeTimeout = 500 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

func genKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() >> 1
	}
	return keys
}

func keysText(keys []uint64) string {
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%d\n", k)
	}
	return sb.String()
}

func sortedText(keys []uint64) string {
	s := slices.Clone(keys)
	slices.Sort(s)
	return keysText(s)
}

func recsOfKeys(keys []uint64) []seq.Record {
	recs := make([]seq.Record, len(keys))
	for i, k := range keys {
		recs[i] = seq.Record{Key: k, Val: uint64(i)}
	}
	return recs
}

func frameOfKeys(t *testing.T, keys []uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := wire.NewWriter(&buf, int64(len(keys)))
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteRecords(recsOfKeys(keys)); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeFrame(t *testing.T, raw []byte) []seq.Record {
	t.Helper()
	fr, err := wire.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out []seq.Record
	buf := make([]seq.Record, 1024)
	for {
		n, err := fr.ReadRecords(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func post(t *testing.T, url, contentType, accept string, body []byte) (*http.Response, []byte) {
	t.Helper()
	if !strings.Contains(url, "/sort") {
		url += "/sort"
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestClusterMatchesSolo: the tentpole identity. The same keys go
// through a solo daemon (forced ext) and through a 3-worker cluster;
// the text bodies must be byte-identical and the binary record streams
// record-identical, in both wire dialects.
func TestClusterMatchesSolo(t *testing.T) {
	solo := newWorker(t, 1<<20)
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, newWorker(t, 1<<14).URL)
	}
	_, coord := newCoordinator(t, Config{Workers: urls, Shards: 6})

	keys := genKeys(50000, 42)

	soloResp, soloBody := post(t, solo.URL+"/sort?model=ext", "", "", []byte(keysText(keys)))
	if soloResp.StatusCode != http.StatusOK {
		t.Fatalf("solo status %d: %.300s", soloResp.StatusCode, soloBody)
	}

	resp, body := post(t, coord.URL, "", "", []byte(keysText(keys)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster status %d: %.300s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Asymsortd-Model"); got != "cluster" {
		t.Fatalf("model %q, want cluster", got)
	}
	if !bytes.Equal(body, soloBody) {
		t.Fatal("cluster text output differs from solo ext output")
	}
	if want := sortedText(keys); string(body) != want {
		t.Fatal("cluster text output is not the sorted key text")
	}

	// Binary dialect: same multiset, engine total order.
	bresp, bbody := post(t, coord.URL, wire.ContentType, "", frameOfKeys(t, keys))
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("cluster binary status %d: %.300s", bresp.StatusCode, bbody)
	}
	got := decodeFrame(t, bbody)
	want := recsOfKeys(keys)
	slices.SortFunc(want, seq.TotalCompare)
	if !slices.Equal(got, want) {
		t.Fatalf("cluster binary records differ from the total-order sort (%d vs %d records)", len(got), len(want))
	}
	// The workers' ext write ledgers survive aggregation: measured ==
	// planned across the whole fleet.
	if w, pw := bresp.Header.Get("X-Asymsortd-Writes"), bresp.Header.Get("X-Asymsortd-Plan-Writes"); w != pw {
		t.Fatalf("cluster ledger writes=%q plan=%q, want equal", w, pw)
	}
}

// TestClusterShapes: the splitter edge cases from the partition layer,
// driven end to end — all-equal keys (every record lands in one
// shard), pre-sorted and reversed inputs, and far more shards than
// distinct keys.
func TestClusterShapes(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, newWorker(t, 1<<14).URL)
	}
	_, coord := newCoordinator(t, Config{Workers: urls, Shards: 8})

	const n = 20000
	allEqual := make([]uint64, n)
	for i := range allEqual {
		allEqual[i] = 7
	}
	sorted := make([]uint64, n)
	reversed := make([]uint64, n)
	fewDistinct := make([]uint64, n)
	for i := range sorted {
		sorted[i] = uint64(i)
		reversed[i] = uint64(n - i)
		fewDistinct[i] = uint64(i % 3)
	}
	for name, keys := range map[string][]uint64{
		"allEqual":        allEqual,
		"sorted":          sorted,
		"reversed":        reversed,
		"shards>distinct": fewDistinct,
		"single":          {12345},
	} {
		t.Run(name, func(t *testing.T) {
			resp, body := post(t, coord.URL, "", "", []byte(keysText(keys)))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %.300s", resp.StatusCode, body)
			}
			if want := sortedText(keys); string(body) != want {
				t.Fatalf("output is not the sorted key text (%d bytes vs %d)", len(body), len(want))
			}
		})
	}
}

// TestClusterEmptyInput: a zero-record job round-trips as an empty
// body (text) and an empty frame (binary), no shards dispatched.
func TestClusterEmptyInput(t *testing.T) {
	_, coord := newCoordinator(t, Config{Workers: []string{newWorker(t, 1<<14).URL}})
	resp, body := post(t, coord.URL, "", "", nil)
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("text: status %d, %d body bytes; want 200, 0", resp.StatusCode, len(body))
	}
	resp, body = post(t, coord.URL, wire.ContentType, "", frameOfKeys(t, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary: status %d: %.300s", resp.StatusCode, body)
	}
	if got := decodeFrame(t, body); len(got) != 0 {
		t.Fatalf("binary: %d records back, want 0", len(got))
	}
}

// flakyWorker proxies to a real worker but fails the first failN /sort
// requests with a 500 after the body is consumed. Its /healthz stays
// healthy, so the coordinator keeps it in the fleet and re-queues the
// failed shards.
func flakyWorker(t *testing.T, mem int, failN int32) *httptest.Server {
	t.Helper()
	real := newWorker(t, mem)
	var failed atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sort" && failed.Add(1) <= failN {
			io.Copy(io.Discard, r.Body)
			http.Error(w, "injected shard failure", http.StatusInternalServerError)
			return
		}
		proxyTo(t, real.URL, w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// proxyTo forwards one request to a backend and copies the response
// through, headers included.
func proxyTo(t *testing.T, backend string, w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, backend+r.URL.String(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// TestClusterRetry: a worker that fails its first two shard attempts
// (healthz still fine) costs retries, not the job.
func TestClusterRetry(t *testing.T) {
	urls := []string{
		flakyWorker(t, 1<<14, 2).URL,
		newWorker(t, 1<<14).URL,
	}
	c, coord := newCoordinator(t, Config{Workers: urls, Shards: 4, Retries: 3})
	keys := genKeys(20000, 7)
	resp, body := post(t, coord.URL, "", "", []byte(keysText(keys)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %.300s", resp.StatusCode, body)
	}
	if want := sortedText(keys); string(body) != want {
		t.Fatal("output is not the sorted key text after retries")
	}
	job := c.jobs.List(nil)[0]
	if job.State != "done" || job.Retries < 1 {
		t.Fatalf("job ledger after flaky worker: %+v (want done with retries >= 1)", job)
	}
}

// TestClusterWorkerDiesMidJob: one worker of three dies during a job,
// at one of two points. Before it answers, it serves /healthz until its
// first shard arrives, then drops the connection and goes dark — the
// crash shape of a killed daemon. Mid-answer, it sorts its first shard
// on a real worker and aborts the connection after the first response
// bytes. Either way the coordinator's post-failure re-probe evicts it
// and the survivors absorb its shards: the body is the sorted keys,
// /healthz says degraded with two healthy workers, the job is done with
// a retry, /metrics counts the job done and a failed attempt, and the
// survivors' and the coordinator's tmp dirs hold nothing but the ω
// meter's state file.
func TestClusterWorkerDiesMidJob(t *testing.T) {
	for _, midAnswer := range []bool{false, true} {
		name := "before-answer"
		if midAnswer {
			name = "mid-answer"
		}
		t.Run(name, func(t *testing.T) {
			real := newWorker(t, 1<<14)
			var dead atomic.Bool
			dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.URL.Path == "/sort" && midAnswer && !dead.Swap(true):
					rec := httptest.NewRecorder()
					proxyTo(t, real.URL, rec, r)
					for k, vs := range rec.Header() {
						w.Header()[k] = vs
					}
					w.WriteHeader(rec.Code)
					w.Write(rec.Body.Bytes()[:64])
					w.(http.Flusher).Flush()
					panic(http.ErrAbortHandler)
				case r.URL.Path == "/sort" || dead.Load():
					dead.Store(true)
					conn, _, err := w.(http.Hijacker).Hijack()
					if err != nil {
						t.Error(err)
						return
					}
					conn.Close()
				default:
					proxyTo(t, real.URL, w, r)
				}
			}))
			t.Cleanup(dying.Close)

			tmps := []string{t.TempDir(), t.TempDir(), t.TempDir()} // two survivors, the coordinator
			urls := []string{dying.URL, newWorkerIn(t, 1<<14, tmps[0]).URL, newWorkerIn(t, 1<<14, tmps[1]).URL}
			c, coord := newCoordinator(t, Config{Workers: urls, Shards: 6, TmpDir: tmps[2]})
			keys := genKeys(30000, 13)
			resp, body := post(t, coord.URL, "", "", []byte(keysText(keys)))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %.300s", resp.StatusCode, body)
			}
			if want := sortedText(keys); string(body) != want {
				t.Fatal("output is not the sorted key text after a worker death")
			}
			if st := c.workers[0].stats(); st.Healthy {
				t.Fatalf("dead worker still marked healthy: %+v", st)
			}

			hr, err := http.Get(coord.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var hs healthSnapshot
			err = json.NewDecoder(hr.Body).Decode(&hs)
			hr.Body.Close()
			if err != nil || hs.Status != "degraded" || hs.HealthyWorkers != 2 {
				t.Fatalf("healthz after the death: %+v (%v), want degraded with 2 healthy workers", hs, err)
			}

			// The job is booked and its files go when its handler returns,
			// a hair after the client sees the body end.
			var job JobStats
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
				job = c.jobs.List(nil)[0]
				var left []string
				for _, dir := range tmps {
					entries, err := os.ReadDir(dir)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range entries {
						if e.Name() != ".asymsort-omega.json" {
							left = append(left, filepath.Join(dir, e.Name()))
						}
					}
				}
				if !job.Live() && len(left) == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("job %+v; left behind: %q", job, left)
				}
			}
			if job.State != "done" || job.Retries < 1 {
				t.Fatalf("job ledger after the death: %+v (want done with retries >= 1)", job)
			}

			mr, err := http.Get(coord.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			snap, err := obs.ParseProm(mr.Body)
			mr.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			done, _ := snap.Get("asymsortd_cluster_jobs_total", map[string]string{"outcome": "done"})
			var failed float64
			for _, smp := range snap.Samples {
				if smp.Name == "asymsortd_cluster_shard_attempts_total" && smp.Labels["outcome"] == "error" {
					failed += smp.Value
				}
			}
			if done != 1 || failed < 1 {
				t.Fatalf("metrics: %g jobs done, %g attempts failed; want 1 and >= 1", done, failed)
			}
		})
	}
}

// TestClusterSkipsDrainingWorker: a draining daemon still answers
// /healthz with a 200, whose body says "draining". The coordinator must
// book it unhealthy and send it no shard, and its own /healthz must say
// degraded, while the job still sorts on the live worker.
func TestClusterSkipsDrainingWorker(t *testing.T) {
	srv := newEngine(t, 1<<14, t.TempDir())
	srv.SetDraining()
	draining := httptest.NewServer(srv.Handler())
	t.Cleanup(draining.Close)
	_, coord := newCoordinator(t, Config{Workers: []string{draining.URL, newWorker(t, 1<<14).URL}, Shards: 4})
	keys := genKeys(20000, 17)
	resp, body := post(t, coord.URL, "", "", []byte(keysText(keys)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %.300s", resp.StatusCode, body)
	}
	if want := sortedText(keys); string(body) != want {
		t.Fatal("output is not the sorted key text")
	}

	sr, err := http.Get(coord.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsSnapshot
	err = json.NewDecoder(sr.Body).Decode(&st)
	sr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if w := st.Workers[0]; w.Healthy || w.Shards != 0 || !strings.Contains(w.LastErr, "draining") {
		t.Fatalf("draining worker on /stats: %+v, want unhealthy, 0 shards, last_err naming draining", w)
	}
	if w := st.Workers[1]; !w.Healthy || w.Shards != 4 {
		t.Fatalf("live worker on /stats: %+v, want healthy with all 4 shards", w)
	}

	hr, err := http.Get(coord.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hs healthSnapshot
	err = json.NewDecoder(hr.Body).Decode(&hs)
	hr.Body.Close()
	if err != nil || hs.Status != "degraded" || hs.HealthyWorkers != 1 {
		t.Fatalf("healthz over a draining worker: %+v (%v), want degraded with 1 healthy worker", hs, err)
	}
}

// TestClusterMalformedWorkerFrame: a worker answering 200 with garbage
// bytes must produce a clean coordinator error once the retry budget
// is spent — never a hang, never a 200.
func TestClusterMalformedWorkerFrame(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", wire.ContentType)
		w.Write([]byte("this is not a record frame at all"))
	}))
	t.Cleanup(bad.Close)

	_, coord := newCoordinator(t, Config{Workers: []string{bad.URL}, Shards: 2, Retries: 1})
	done := make(chan struct{})
	var code int
	var body []byte
	go func() {
		defer close(done)
		resp, b := post(t, coord.URL, "", "", []byte(keysText(genKeys(5000, 3))))
		code, body = resp.StatusCode, b
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung on a malformed worker frame")
	}
	if code != http.StatusBadGateway {
		t.Fatalf("status %d: %.300s (want 502)", code, body)
	}
	if !strings.Contains(string(body), "shard") {
		t.Fatalf("error does not name the failing shard: %.300s", body)
	}
}

// throttleReader trickles its source at chunk bytes per pause, keeping
// an upload in flight long enough for a hedge to fire.
type throttleReader struct {
	r     io.Reader
	chunk int
	pause time.Duration
}

func (tr *throttleReader) Read(p []byte) (int, error) {
	if len(p) > tr.chunk {
		p = p[:tr.chunk]
	}
	n, err := tr.r.Read(p)
	time.Sleep(tr.pause)
	return n, err
}

// TestClusterHedging: one worker receives its shard through a
// throttled pipe; with hedging armed the idle fast worker duplicates
// the shard and wins, and the loser's worker-side job must actually
// die: its job record goes canceled, its broker envelope comes back
// whole with no live lease, and its spill directory is reclaimed.
func TestClusterHedging(t *testing.T) {
	// The slow worker is a real daemon with an observable tmp dir; the
	// throttle lives in a proxy in front of it, so the worker itself has
	// a genuine in-flight job when the hedge winner cancels it.
	slowTmp := t.TempDir()
	slowWorker := newWorkerIn(t, 1<<14, slowTmp)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sort" {
			req, err := http.NewRequestWithContext(r.Context(), "POST", slowWorker.URL+r.URL.String(),
				&throttleReader{r: r.Body, chunk: 4096, pause: 50 * time.Millisecond})
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			req.Header = r.Header.Clone()
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			for k, vs := range resp.Header {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
			return
		}
		proxyTo(t, slowWorker.URL, w, r)
	}))
	t.Cleanup(slow.Close)

	urls := []string{slow.URL, newWorker(t, 1<<14).URL}
	c, coord := newCoordinator(t, Config{
		Workers: urls, Shards: 2, Retries: 1, HedgeAfter: 100 * time.Millisecond,
	})
	keys := genKeys(10000, 99)
	start := time.Now()
	resp, body := post(t, coord.URL, "", "", []byte(keysText(keys)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %.300s", resp.StatusCode, body)
	}
	if want := sortedText(keys); string(body) != want {
		t.Fatal("output is not the sorted key text under hedging")
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("hedged job took %v — the throttled worker was on the critical path", took)
	}
	job := c.jobs.List(nil)[0]
	if job.Hedges < 1 {
		t.Fatalf("job ledger: %+v (want hedges >= 1)", job)
	}

	// The losing attempt's cancellation is asynchronous on the worker
	// side; poll its /stats until the job dies and every resource is
	// back: no canceled-but-leaked lease, no orphan spill files.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ws struct {
			Broker struct {
				TotalMem int               `json:"total_mem"`
				FreeMem  int               `json:"free_mem"`
				Running  []json.RawMessage `json:"running"`
			} `json:"broker"`
			Jobs []struct {
				State string `json:"state"`
			} `json:"jobs"`
		}
		sr, err := http.Get(slowWorker.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(sr.Body).Decode(&ws)
		sr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		canceled := 0
		for _, wj := range ws.Jobs {
			if wj.State == "canceled" {
				canceled++
			}
		}
		spills, err := filepath.Glob(filepath.Join(slowTmp, "asymsortd-job*"))
		if err != nil {
			t.Fatal(err)
		}
		if canceled >= 1 && len(ws.Broker.Running) == 0 &&
			ws.Broker.FreeMem == ws.Broker.TotalMem && len(spills) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loser not reclaimed: jobs=%+v broker=%+v spills=%v",
				ws.Jobs, ws.Broker, spills)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterForwardsAdmissionClass: the coordinator relays the
// client's priority/deadline (header or query) to every shard POST, so
// workers' brokers see the cluster job's latency class; malformed
// values are a clean 400 before any worker traffic.
func TestClusterForwardsAdmissionClass(t *testing.T) {
	real := newWorker(t, 1<<16)
	var gotQuery atomic.Value
	var shardPosts atomic.Int32
	rec := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sort" {
			gotQuery.Store(r.URL.RawQuery)
			shardPosts.Add(1)
		}
		proxyTo(t, real.URL, w, r)
	}))
	t.Cleanup(rec.Close)
	_, coord := newCoordinator(t, Config{Workers: []string{rec.URL}, Shards: 2})

	keys := genKeys(8000, 17)
	req, err := http.NewRequest("POST", coord.URL+"/sort", strings.NewReader(keysText(keys)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Asymsortd-Priority", "5")
	req.Header.Set("X-Asymsortd-Deadline", "750ms")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %.300s", resp.StatusCode, body)
	}
	if string(body) != sortedText(keys) {
		t.Fatal("output is not the sorted key text")
	}
	q, _ := gotQuery.Load().(string)
	if !strings.Contains(q, "priority=5") || !strings.Contains(q, "deadline=750ms") {
		t.Fatalf("shard POST query %q lacks the forwarded admission class", q)
	}

	posted := shardPosts.Load()

	resp2, body2 := post(t, coord.URL+"/sort?priority=abc", "", "", []byte("2\n1\n"))
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority: status %d: %.300s (want 400)", resp2.StatusCode, body2)
	}
	resp3, body3 := post(t, coord.URL+"/sort?deadline=-5s", "", "", []byte("2\n1\n"))
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline: status %d: %.300s (want 400)", resp3.StatusCode, body3)
	}
	// A millisecond deadline that overflows time.Duration is a worker's
	// 400, so it must be the coordinator's too, in the query or the
	// header.
	for _, c := range []struct{ query, header string }{
		{"?deadline=18446744073710", ""},
		{"", "18446744073710"},
		{"?deadline=9223372036855", ""},
	} {
		req, err := http.NewRequest("POST", coord.URL+"/sort"+c.query, strings.NewReader("2\n1\n"))
		if err != nil {
			t.Fatal(err)
		}
		if c.header != "" {
			req.Header.Set("X-Asymsortd-Deadline", c.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "too large") {
			t.Fatalf("deadline %q%q: status %d: %.300s (want 400, too large)", c.query, c.header, resp.StatusCode, body)
		}
	}
	if n := shardPosts.Load() - posted; n != 0 {
		t.Fatalf("%d shard POSTs reached the worker for rejected jobs, want none", n)
	}
}

// TestClusterRoutingErrors: the coordinator answers an unknown path
// with a JSON 404 and a wrong method on a known path with a JSON 405
// naming the allowed method, the contract TestServeRoutingErrors pins
// for a worker.
func TestClusterRoutingErrors(t *testing.T) {
	_, coord := newCoordinator(t, Config{Workers: []string{newWorker(t, 1<<14).URL}})
	for _, tc := range []struct {
		method, path, allow string
		code                int
	}{
		{"GET", "/nope", "", http.StatusNotFound},
		{"POST", "/v1/sort", "", http.StatusNotFound}, // kernels are a worker's routes
		{"GET", "/sort", "POST", http.StatusMethodNotAllowed},
		{"POST", "/stats", "GET", http.StatusMethodNotAllowed},
		{"PUT", "/healthz", "GET", http.StatusMethodNotAllowed},
		{"DELETE", "/metrics", "GET", http.StatusMethodNotAllowed},
	} {
		t.Run(tc.method+tc.path, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, coord.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.code, body)
			}
			if a := resp.Header.Get("Allow"); a != tc.allow {
				t.Errorf("Allow %q, want %q", a, tc.allow)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("error content type %q, want application/json", ct)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q is not {\"error\": ...}: %v", body, err)
			}
		})
	}
}

// TestClusterNoHealthyWorkers: a fleet of dead URLs is a clean 503.
func TestClusterNoHealthyWorkers(t *testing.T) {
	deadURL := func() string {
		ts := httptest.NewServer(http.NotFoundHandler())
		ts.Close() // bound, then released: nothing listens here
		return ts.URL
	}
	_, coord := newCoordinator(t, Config{Workers: []string{deadURL(), deadURL()}})
	resp, body := post(t, coord.URL, "", "", []byte("3\n1\n2\n"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %.300s (want 503)", resp.StatusCode, body)
	}
}

// TestClusterObservability: /healthz reports fleet health live,
// /stats carries the job and worker tables, /metrics exposes the
// asymsortd_cluster_* families.
func TestClusterObservability(t *testing.T) {
	reg := obs.NewRegistry()
	urls := []string{newWorker(t, 1<<14).URL, newWorker(t, 1<<14).URL}
	_, coord := newCoordinator(t, Config{Workers: urls, Shards: 4, Metrics: reg})
	keys := genKeys(15000, 5)
	if resp, body := post(t, coord.URL, "", "", []byte(keysText(keys))); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %.300s", resp.StatusCode, body)
	}

	hr, err := http.Get(coord.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	var hs healthSnapshot
	if err := json.Unmarshal(hb, &hs); err != nil {
		t.Fatalf("healthz decode: %v: %s", err, hb)
	}
	if hs.Status != "ok" || hs.Role != "coordinator" || hs.HealthyWorkers != 2 {
		t.Fatalf("healthz: %+v", hs)
	}

	sr, err := http.Get(coord.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := io.ReadAll(sr.Body)
	sr.Body.Close()
	for _, want := range []string{`"workers"`, `"jobs"`, `"state": "done"`, `"bytes_sent"`} {
		if !strings.Contains(string(sb), want) {
			t.Fatalf("stats missing %q: %s", want, sb)
		}
	}

	mr, err := http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		"asymsortd_cluster_jobs_total",
		"asymsortd_cluster_shard_attempts_total",
		"asymsortd_cluster_workers_healthy",
		"asymsortd_cluster_phase_seconds",
	} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}
