package serve

// Tests of the generic kernel job engine: every registry kernel served
// through /v1/{kernel} on both models and both wire dialects, checked
// differentially against the kernel's in-memory reference; the routing
// contract (JSON 404/405); /healthz; the per-kernel /stats aggregates;
// and the broker-envelope acceptance for a non-sort kernel — budget
// refusal and mid-merge cancellation with byte-identical bystanders.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"asymsort/internal/kernel"
	"asymsort/internal/seq"
	"asymsort/internal/wire"
)

// genDupKeys draws keys from a small span so semisort/merge-join see
// real key groups.
func genDupKeys(n, span int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(span))
	}
	return keys
}

// recsOfKeys mirrors the text-dialect staging: payload = record index.
func recsOfKeys(keys []uint64) []seq.Record {
	recs := make([]seq.Record, len(keys))
	for i, k := range keys {
		recs[i] = seq.Record{Key: k, Val: uint64(i)}
	}
	return recs
}

// recordsText renders records the way non-sort kernels stream text
// output: "key value" lines.
func recordsText(recs []seq.Record) string {
	var sb strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&sb, "%d %d\n", r.Key, r.Val)
	}
	return sb.String()
}

// request is the generic client: any path, any headers.
func (s *testService) request(t *testing.T, method, path string, hdr map[string]string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	req, err := http.NewRequest(method, s.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
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

// TestServeKernelEndpointsText: every registry kernel served on
// /v1/{kernel}, text dialect, on both models, must match its in-memory
// reference over the staged records, announce itself in the headers,
// and — on ext — hold the measured-vs-planned write identity.
func TestServeKernelEndpointsText(t *testing.T) {
	s := newTestService(t, 1<<16, 2, 64)
	keys := genDupKeys(3000, 40, 7)
	uniq := genKeys(3000, 8)
	cases := []struct {
		kname string
		query string
		keys  []uint64
		p     kernel.Params
	}{
		{"sort", "", uniq, kernel.Params{}},
		{"semisort", "", keys, kernel.Params{}},
		{"histogram", "&buckets=13", keys, kernel.Params{Buckets: 13}},
		{"top-k", "&k=25", uniq, kernel.Params{K: 25}},
		{"merge-join", "&left=1000", keys, kernel.Params{LeftN: 1000}},
	}
	for _, tc := range cases {
		k, ok := kernel.Get(tc.kname)
		if !ok {
			t.Fatalf("kernel %q not registered", tc.kname)
		}
		ref := k.Ref(recsOfKeys(tc.keys), tc.p)
		want := recordsText(ref)
		if tc.kname == "sort" {
			want = sortedText(tc.keys) // the alias dialect: bare keys
		}
		for _, model := range []string{"native", "ext&mem=1024"} {
			resp, body := s.request(t, "POST", "/v1/"+tc.kname+"?model="+model+tc.query, nil,
				[]byte(keysText(tc.keys)))
			name := fmt.Sprintf("%s/%s", tc.kname, model)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %.300s", name, resp.StatusCode, body)
			}
			if string(body) != want {
				t.Errorf("%s: output diverges from the kernel reference", name)
			}
			if got := resp.Header.Get("X-Asymsortd-Kernel"); got != tc.kname {
				t.Errorf("%s: kernel header %q", name, got)
			}
			if got := resp.Header.Get("X-Asymsortd-Out"); got != fmt.Sprint(len(ref)) {
				t.Errorf("%s: out header %q, want %d", name, got, len(ref))
			}
			if strings.HasPrefix(model, "ext") {
				wr, pl := resp.Header.Get("X-Asymsortd-Writes"), resp.Header.Get("X-Asymsortd-Plan-Writes")
				if wr == "" || wr == "0" || wr != pl {
					t.Errorf("%s: ext ledger writes=%q plan=%q, want equal and nonzero", name, wr, pl)
				}
			}
		}
	}
	assertNoJobDirs(t, s.tmp)
}

// TestServeKernelBinaryWire: a non-sort kernel on the binary dialect,
// both legs — the response frame must decode to exactly the reference
// reduction.
func TestServeKernelBinaryWire(t *testing.T) {
	s := newTestService(t, 1<<15, 2, 64)
	keys := genDupKeys(5000, 97, 21)
	want := kernel.RefReduceByKey(recsOfKeys(keys))
	for _, model := range []string{"native", "ext&mem=2048"} {
		resp, body := s.request(t, "POST", "/v1/semisort?model="+model,
			map[string]string{"Content-Type": wire.ContentType},
			frameOfKeys(t, keys, 1000))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %.300s", model, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
			t.Errorf("%s: content type %q", model, ct)
		}
		if w := resp.Header.Get("X-Asymsortd-Wire"); w != "binary" {
			t.Errorf("%s: wire header %q", model, w)
		}
		got := decodeFrame(t, body)
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", model, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: group %d = %v, want %v", model, i, got[i], want[i])
			}
		}
	}
	assertNoJobDirs(t, s.tmp)
}

// TestServeSortAliasMatchesV1: /sort and /v1/sort return identical
// bodies; only the alias omits the kernel headers (its responses are
// pinned to the pre-registry daemon's bytes).
func TestServeSortAliasMatchesV1(t *testing.T) {
	s := newTestService(t, 1<<14, 1, 64)
	body := []byte(keysText(genKeys(20000, 3)))
	aresp, abody := s.request(t, "POST", "/sort?model=ext&mem=2048", nil, body)
	vresp, vbody := s.request(t, "POST", "/v1/sort?model=ext&mem=2048", nil, body)
	if aresp.StatusCode != http.StatusOK || vresp.StatusCode != http.StatusOK {
		t.Fatalf("status %d / %d", aresp.StatusCode, vresp.StatusCode)
	}
	if string(abody) != string(vbody) {
		t.Error("alias and /v1/sort bodies diverge")
	}
	if h := aresp.Header.Get("X-Asymsortd-Kernel"); h != "" {
		t.Errorf("/sort leaks kernel header %q", h)
	}
	if h := vresp.Header.Get("X-Asymsortd-Kernel"); h != "sort" {
		t.Errorf("/v1/sort kernel header %q", h)
	}
}

// decodeJSONError asserts a JSON {"error": ...} body.
func decodeJSONError(t *testing.T, resp *http.Response, body []byte) string {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error content type %q, want application/json", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("error body %q is not {\"error\": ...}: %v", body, err)
	}
	return e.Error
}

// TestServeRoutingErrors: unknown kernels and paths are JSON 404s;
// known paths with the wrong method are JSON 405s naming the allowed
// method.
func TestServeRoutingErrors(t *testing.T) {
	s := newTestService(t, 1<<13, 1, 64)
	t.Run("unknown-kernel", func(t *testing.T) {
		resp, body := s.request(t, "POST", "/v1/bogus", nil, []byte("1\n"))
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d", resp.StatusCode)
		}
		msg := decodeJSONError(t, resp, body)
		if !strings.Contains(msg, "unknown kernel") || !strings.Contains(msg, "semisort") {
			t.Errorf("error %q should name the kernel and list the registry", msg)
		}
	})
	t.Run("unknown-path", func(t *testing.T) {
		resp, body := s.request(t, "GET", "/nope", nil, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d", resp.StatusCode)
		}
		decodeJSONError(t, resp, body)
	})
	for _, tc := range []struct{ method, path, allow string }{
		{"GET", "/sort", "POST"},
		{"DELETE", "/v1/semisort", "POST"},
		{"POST", "/stats", "GET"},
		{"PUT", "/healthz", "GET"},
	} {
		t.Run("method-"+tc.method+tc.path, func(t *testing.T) {
			resp, body := s.request(t, tc.method, tc.path, nil, nil)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if a := resp.Header.Get("Allow"); a != tc.allow {
				t.Errorf("Allow %q, want %q", a, tc.allow)
			}
			decodeJSONError(t, resp, body)
		})
	}
}

// TestServeHealthz: JSON liveness with uptime and lease count, and the
// drain flag flips the status.
func TestServeHealthz(t *testing.T) {
	s := newTestService(t, 1<<13, 1, 64)
	get := func() healthSnapshot {
		resp, body := s.request(t, "GET", "/healthz", nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var h healthSnapshot
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := get(); h.Status != "ok" || h.UptimeMS < 0 || h.LiveLeases != 0 {
		t.Errorf("healthz %+v, want ok with no leases", h)
	}
	s.srv.SetDraining()
	if h := get(); h.Status != "draining" {
		t.Errorf("healthz status %q after SetDraining, want draining", h.Status)
	}
}

// TestServeKernelParamRejection: malformed or invalid kernel params
// are 400s, rejected before any lease is held.
func TestServeKernelParamRejection(t *testing.T) {
	s := newTestService(t, 1<<13, 1, 64)
	body := keysText(genKeys(10, 4))
	for _, tc := range []struct{ name, path string }{
		{"histogram-missing-buckets", "/v1/histogram"},
		{"topk-bad-k", "/v1/top-k?k=abc"},
		{"topk-missing-k", "/v1/top-k"},
		{"mergejoin-left-too-big", "/v1/merge-join?left=11"},
		{"negative-param", "/v1/top-k?k=-3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, out := s.request(t, "POST", tc.path, nil, []byte(body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %.200s", resp.StatusCode, out)
			}
		})
	}
	snap := s.stats(t)
	if snap.Broker.FreeMem != snap.Broker.TotalMem || len(snap.Broker.Running) != 0 {
		t.Errorf("rejected params leaked a lease: %+v", snap.Broker)
	}
}

// TestServeKernelBudgetRefusal: an ext composition whose working set
// cannot fit the grant (top-k heap > M) is refused with 507, the lease
// released and the envelope whole.
func TestServeKernelBudgetRefusal(t *testing.T) {
	s := newTestService(t, 1<<13, 1, 64)
	body := keysText(genKeys(5000, 11))
	resp, out := s.request(t, "POST", "/v1/top-k?model=ext&mem=1024&k=2000", nil, []byte(body))
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("status %d: %.200s", resp.StatusCode, out)
	}
	snap := s.stats(t)
	if snap.Broker.FreeMem != snap.Broker.TotalMem || len(snap.Broker.Running) != 0 {
		t.Errorf("budget refusal leaked a lease: %+v", snap.Broker)
	}
	assertNoJobDirs(t, s.tmp)
}

// TestServeKernelStatsAggregates: /stats carries per-kernel ledgers
// folded at completion — job counts by outcome and the summed IO
// ledgers, with the write identity intact per kernel.
func TestServeKernelStatsAggregates(t *testing.T) {
	s := newTestService(t, 1<<15, 1, 64)
	keys := genDupKeys(4000, 31, 5)
	for i := 0; i < 2; i++ {
		resp, out := s.request(t, "POST", "/v1/semisort?model=ext&mem=1024", nil, []byte(keysText(keys)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("semisort job %d: status %d: %.200s", i, resp.StatusCode, out)
		}
	}
	if resp, out := s.request(t, "POST", "/v1/histogram?buckets=7", nil, []byte(keysText(keys))); resp.StatusCode != http.StatusOK {
		t.Fatalf("histogram: status %d: %.200s", resp.StatusCode, out)
	}
	// One failed top-k: budget refusal counts into the aggregate too.
	if resp, _ := s.request(t, "POST", "/v1/top-k?model=ext&mem=1024&k=2000", nil, []byte(keysText(genKeys(5000, 2)))); resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("top-k: status %d", resp.StatusCode)
	}

	snap := s.stats(t)
	semi := snap.Kernels["semisort"]
	if semi.Jobs != 2 || semi.Done != 2 {
		t.Errorf("semisort aggregate %+v, want 2 done jobs", semi)
	}
	if semi.Writes == 0 || semi.Writes != semi.PlanWrites {
		t.Errorf("semisort aggregate writes=%d plan=%d, want equal and nonzero", semi.Writes, semi.PlanWrites)
	}
	if h := snap.Kernels["histogram"]; h.Done != 1 {
		t.Errorf("histogram aggregate %+v, want 1 done", h)
	}
	if tk := snap.Kernels["top-k"]; tk.Failed != 1 {
		t.Errorf("top-k aggregate %+v, want 1 failed", tk)
	}
}

// TestServeKillMidMergeSemisortReclaimsLease is the non-sort kernel's
// broker-envelope acceptance: a client kills a big ext semisort job
// mid-merge; the broker must reclaim its lease, the job's spill dir
// must vanish, and concurrent semisort jobs must finish identical to
// the in-memory reference.
func TestServeKillMidMergeSemisortReclaimsLease(t *testing.T) {
	s := newTestService(t, 1<<14, 2, 64)

	// Deterministic mid-merge kill, ordered as in the sort test: the
	// victim (lease 0) is revoked at its second Mem ack — the first
	// merge-level boundary — via the client context, the disconnect
	// path production takes. The hook holds the victim's engine at that
	// boundary: first until the test has seen both bystanders past
	// staging, then, after the hang-up, until the server has revoked the
	// lease (disconnect → context.AfterFunc → Lease.Cancel). On one P
	// the victim would otherwise finish its merge before the disconnect
	// reaches the server.
	vctx, vcancel := context.WithCancel(context.Background())
	defer vcancel()
	bystandersIn := make(chan struct{})
	s.b.mu.Lock()
	s.b.testOnAck = func(l *Lease, ack int) {
		if l.ID() != 0 || ack != 2 {
			return
		}
		select {
		case <-bystandersIn:
		case <-time.After(10 * time.Second):
		}
		vcancel()
		select {
		case <-l.Canceled():
		case <-time.After(10 * time.Second):
		}
	}
	s.b.mu.Unlock()

	victimKeys := genDupKeys(400000, 5000, 99)
	victimErr := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(vctx, "POST", s.ts.URL+"/v1/semisort?model=ext", strings.NewReader(keysText(victimKeys)))
		if err != nil {
			victimErr <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			err = fmt.Errorf("victim request finished with status %d before the kill", resp.StatusCode)
		}
		victimErr <- err
	}()

	// Bystanders join once the victim holds lease 0 (see the sort test).
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := s.stats(t)
		if len(snap.Jobs) > 0 && snap.Jobs[0].State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := genDupKeys(30000, 700, int64(200+i))
			want := recordsText(kernel.RefReduceByKey(recsOfKeys(keys)))
			resp, body := s.request(t, "POST", "/v1/semisort?model=ext", nil, []byte(keysText(keys)))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("bystander %d: status %d: %.200s", i, resp.StatusCode, body)
				return
			}
			if string(body) != want {
				t.Errorf("bystander %d: output diverges from the reference reduction", i)
			}
		}(i)
	}

	deadline = time.Now().Add(10 * time.Second)
	for {
		snap := s.stats(t)
		if len(snap.Jobs) == 3 && snap.Jobs[1].State != "staging" && snap.Jobs[2].State != "staging" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bystanders never got past staging")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(bystandersIn)

	if err := <-victimErr; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("victim client saw %v, want a canceled request", err)
	}
	wg.Wait()

	// The lease comes back before the victim's job dir is removed and
	// its outcome is counted, so wait for all three outcomes too.
	deadline = time.Now().Add(10 * time.Second)
	for {
		snap := s.stats(t)
		if snap.Broker.FreeMem == snap.Broker.TotalMem && len(snap.Broker.Running) == 0 && snap.Kernels["semisort"].Jobs == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never reclaimed: %+v", snap.Broker)
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := s.stats(t)
	if snap.Jobs[0].State != "canceled" {
		t.Fatalf("victim state %q (err %q), want canceled", snap.Jobs[0].State, snap.Jobs[0].Err)
	}
	for _, j := range snap.Jobs[1:] {
		if j.State != "done" || j.Writes != j.PlanWrites {
			t.Errorf("bystander job %d: state=%s writes=%d plan=%d", j.ID, j.State, j.Writes, j.PlanWrites)
		}
	}
	if agg := snap.Kernels["semisort"]; agg.Canceled != 1 || agg.Done != 2 {
		t.Errorf("semisort aggregate %+v, want 1 canceled + 2 done", agg)
	}
	assertNoJobDirs(t, s.tmp)
}
