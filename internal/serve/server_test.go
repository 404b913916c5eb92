package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"asymsort/internal/seq"
	"asymsort/internal/wire"
)

// testService spins up a full broker + job engine on an httptest
// server with a private tmp dir.
type testService struct {
	b   *Broker
	srv *Server
	ts  *httptest.Server
	tmp string
}

func newTestService(t *testing.T, mem, procs, block int) *testService {
	t.Helper()
	b, err := NewBroker(BrokerConfig{Mem: mem, Procs: procs, MinLease: 16 * block})
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	srv, err := NewServer(ServerConfig{Broker: b, Block: block, Omega: 8, TmpDir: tmp})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testService{b: b, srv: srv, ts: ts, tmp: tmp}
}

// keysText renders keys one per line; sortedText is its sorted form —
// the byte-identical text a solo `asymsort -model ext` run of the same
// input produces (output text is a pure function of the key multiset).
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

// postSort posts keys and returns status, body, and response headers.
func (s *testService) postSort(t *testing.T, ctx context.Context, query, body string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "POST", s.ts.URL+"/sort"+query, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
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
	return resp.StatusCode, string(out), resp.Header
}

// stats fetches and decodes /stats.
func (s *testService) stats(t *testing.T) statsSnapshot {
	t.Helper()
	resp, err := http.Get(s.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap statsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// genKeys is a deterministic key generator for the tests.
func genKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() >> 1
	}
	return keys
}

// TestServeNativeJob: a job whose doubled size fits the envelope runs
// in RAM and comes back sorted.
func TestServeNativeJob(t *testing.T) {
	s := newTestService(t, 1<<16, 2, 64)
	keys := genKeys(5000, 1)
	code, body, hdr := s.postSort(t, context.Background(), "", keysText(keys))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if hdr.Get("X-Asymsortd-Model") != "native" {
		t.Fatalf("model %q, want native", hdr.Get("X-Asymsortd-Model"))
	}
	if body != sortedText(keys) {
		t.Fatal("response is not the sorted key text")
	}
	snap := s.stats(t)
	if len(snap.Jobs) != 1 || snap.Jobs[0].State != "done" || snap.Jobs[0].N != 5000 {
		t.Fatalf("stats: %+v", snap.Jobs)
	}
}

// TestServeExtJobLedger: a job larger than its grant runs on the ext
// engine, returns the identical sorted text, and reports a measured
// write ledger equal to the simulated AEM plan on /stats.
func TestServeExtJobLedger(t *testing.T) {
	s := newTestService(t, 1<<14, 2, 64) // 16384-record envelope
	keys := genKeys(60000, 2)            // needs 120000 resident → ext
	code, body, hdr := s.postSort(t, context.Background(), "", keysText(keys))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if hdr.Get("X-Asymsortd-Model") != "ext" {
		t.Fatalf("model %q, want ext", hdr.Get("X-Asymsortd-Model"))
	}
	if body != sortedText(keys) {
		t.Fatal("response is not the sorted key text")
	}
	j := s.stats(t).Jobs[0]
	if j.Writes == 0 || j.Writes != j.PlanWrites {
		t.Fatalf("served write ledger %d != simulated plan %d", j.Writes, j.PlanWrites)
	}
	if j.MemGrant > 1<<14 {
		t.Fatalf("grant %d exceeds the envelope", j.MemGrant)
	}
}

// TestServeConcurrentExtJobsShareEnvelope is the in-process version of
// the acceptance smoke: concurrent forced-ext jobs under one shared
// envelope must all return byte-identical output to solo runs, keep
// their per-job ledgers equal to the simulated plan, and leave the
// broker's envelope whole and the job dirs removed.
func TestServeConcurrentExtJobsShareEnvelope(t *testing.T) {
	const jobs = 8
	s := newTestService(t, 1<<16, 4, 64)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := genKeys(20000+i*1111, int64(i+10))
			code, body, _ := s.postSort(t, context.Background(), "?model=ext", keysText(keys))
			if code != http.StatusOK {
				t.Errorf("job %d: status %d: %.200s", i, code, body)
				return
			}
			if body != sortedText(keys) {
				t.Errorf("job %d: output diverges from the solo run", i)
			}
		}(i)
	}
	wg.Wait()
	snap := s.stats(t)
	if len(snap.Jobs) != jobs {
		t.Fatalf("%d jobs recorded, want %d", len(snap.Jobs), jobs)
	}
	for _, j := range snap.Jobs {
		if j.State != "done" {
			t.Errorf("job %d state %q: %s", j.ID, j.State, j.Err)
		}
		if j.Model != "ext" || j.Writes != j.PlanWrites || j.Writes == 0 {
			t.Errorf("job %d: model=%s writes=%d plan=%d", j.ID, j.Model, j.Writes, j.PlanWrites)
		}
		if j.MemGrant > snap.Broker.TotalMem {
			t.Errorf("job %d: grant %d exceeds envelope %d", j.ID, j.MemGrant, snap.Broker.TotalMem)
		}
	}
	if snap.Broker.FreeMem != snap.Broker.TotalMem || len(snap.Broker.Running) != 0 {
		t.Fatalf("envelope not whole after jobs: %+v", snap.Broker)
	}
	assertNoJobDirs(t, s.tmp)
}

// assertNoJobDirs asserts every per-job scratch dir (staging, output,
// spill) was removed.
func assertNoJobDirs(t *testing.T, tmp string) {
	t.Helper()
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "asymsortd-job") {
			t.Fatalf("job scratch dir %s left behind", e.Name())
		}
	}
}

// TestServeKillMidMergeReclaimsLease is the fault-injection test of the
// service path: a client kills a big ext job mid-merge; the broker must
// reclaim its lease (envelope whole again), the job's spill/staging
// dir must vanish, and concurrent in-flight jobs must finish
// byte-identical to solo runs.
func TestServeKillMidMergeReclaimsLease(t *testing.T) {
	s := newTestService(t, 1<<14, 2, 64)

	// Deterministic mid-merge kill: the victim (the broker's first
	// lease, id 0) is revoked at its second Mem acknowledgement — the
	// first merge-level boundary, after all its runs are formed and
	// spilled but before the merge completes — via the client context,
	// exactly the disconnect path production takes. The hook holds the
	// victim's engine at that boundary: first until the test has seen
	// both bystanders past staging, then, after the hang-up, until the
	// server has revoked the lease (disconnect → context.AfterFunc →
	// Lease.Cancel). On one P the victim would otherwise finish its
	// merge before the disconnect reaches the server.
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

	victimKeys := genKeys(400000, 99)
	victimErr := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(vctx, "POST", s.ts.URL+"/sort?model=ext", strings.NewReader(keysText(victimKeys)))
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

	// Two bystanders join once the victim is running — not merely
	// registered: the victim must hold the broker's lease 0 before any
	// bystander acquires one, or the kill hook fires on a bystander's
	// merge boundary and cancels the victim mid-staging instead.
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
			keys := genKeys(30000, int64(200+i))
			code, body, _ := s.postSort(t, context.Background(), "?model=ext", keysText(keys))
			if code != http.StatusOK {
				t.Errorf("bystander %d: status %d: %.200s", i, code, body)
				return
			}
			if body != sortedText(keys) {
				t.Errorf("bystander %d: output diverges from the solo run", i)
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

	// The broker must reclaim the victim's lease once its engine aborts.
	deadline = time.Now().Add(10 * time.Second)
	for {
		snap := s.stats(t)
		if snap.Broker.FreeMem == snap.Broker.TotalMem && len(snap.Broker.Running) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never reclaimed: %+v", snap.Broker)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The victim's state records the cancellation, and every job dir —
	// including the victim's spill files — is gone.
	snap := s.stats(t)
	if snap.Jobs[0].State != "canceled" {
		t.Fatalf("victim state %q (err %q), want canceled", snap.Jobs[0].State, snap.Jobs[0].Err)
	}
	for _, j := range snap.Jobs[1:] {
		if j.State != "done" || j.Writes != j.PlanWrites {
			t.Errorf("bystander job %d: state=%s writes=%d plan=%d", j.ID, j.State, j.Writes, j.PlanWrites)
		}
	}
	assertNoJobDirs(t, s.tmp)
}

// TestServeQueueBackpressure: more jobs than the envelope admits must
// queue and then all complete; /stats exposes the queue while it holds.
func TestServeQueueBackpressure(t *testing.T) {
	s := newTestService(t, 1<<13, 1, 64)
	const jobs = 6
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := genKeys(20000, int64(300+i))
			code, body, _ := s.postSort(t, context.Background(), "?model=ext", keysText(keys))
			if code != http.StatusOK {
				t.Errorf("job %d: status %d", i, code)
				return
			}
			if body != sortedText(keys) {
				t.Errorf("job %d: bad output", i)
			}
		}(i)
	}
	wg.Wait()
	snap := s.stats(t)
	for _, j := range snap.Jobs {
		if j.State != "done" {
			t.Errorf("job %d: %s (%s)", j.ID, j.State, j.Err)
		}
	}
	if snap.Broker.FreeMem != snap.Broker.TotalMem {
		t.Fatalf("envelope not whole: %+v", snap.Broker)
	}
}

// TestServeBadRequests: malformed keys and bad params surface as HTTP
// errors, not hung jobs or leaked leases.
func TestServeBadRequests(t *testing.T) {
	s := newTestService(t, 1<<13, 1, 64)
	if code, _, _ := s.postSort(t, context.Background(), "", "12\nnot-a-number\n"); code != http.StatusBadRequest {
		t.Fatalf("malformed key: status %d, want 400", code)
	}
	if code, _, _ := s.postSort(t, context.Background(), "?mem=-4", "1\n2\n"); code != http.StatusBadRequest {
		t.Fatalf("bad mem param: status %d, want 400", code)
	}
	if code, _, _ := s.postSort(t, context.Background(), "?model=quantum", "1\n2\n"); code != http.StatusBadRequest {
		t.Fatalf("unknown model: status %d, want 400", code)
	}
	// The query is checked before the body is staged, so the rejected
	// job (the third) never learned its n.
	if j := s.stats(t).Jobs[2]; !strings.Contains(j.Err, "quantum") || j.N != 0 {
		t.Fatalf("unknown-model job: %+v, want its error and n = 0", j)
	}
	// Forced native beyond the envelope must refuse, not OOM.
	big := keysText(genKeys(20000, 7))
	if code, _, _ := s.postSort(t, context.Background(), "?model=native", big); code != http.StatusInsufficientStorage {
		t.Fatalf("oversized native: status %d, want 507", code)
	}
	if s.stats(t).Broker.FreeMem != 1<<13 {
		t.Fatal("failed requests leaked lease memory")
	}
}

// --- binary wire dialect ---

// postRaw posts an arbitrary body with explicit Content-Type / Accept
// headers and returns the response with its body read.
func (s *testService) postRaw(t *testing.T, query, contentType, accept string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", s.ts.URL+"/sort"+query, bytes.NewReader(body))
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

// frameOfKeys renders keys as a chunked binary frame with payload =
// index, so the sorted records follow from the keys alone
// (sortedRecsOfKeys).
func frameOfKeys(t *testing.T, keys []uint64, chunkRecs int) []byte {
	t.Helper()
	recs := make([]seq.Record, len(keys))
	for i, k := range keys {
		recs[i] = seq.Record{Key: k, Val: uint64(i)}
	}
	return frameOfRecords(t, recs, chunkRecs)
}

// frameOfRecords renders recs as a chunked binary frame.
func frameOfRecords(t *testing.T, recs []seq.Record, chunkRecs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := wire.NewWriter(&buf, int64(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	for len(recs) > 0 {
		n := min(chunkRecs, len(recs))
		if err := fw.WriteRecords(recs[:n]); err != nil {
			t.Fatal(err)
		}
		recs = recs[n:]
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeFrame decodes a full response frame.
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

// sortedRecsOfKeys is the engine-order expectation: records sorted by
// (Key, Val) — what any engine model returns for the key multiset.
func sortedRecsOfKeys(keys []uint64) []seq.Record {
	recs := make([]seq.Record, len(keys))
	for i, k := range keys {
		recs[i] = seq.Record{Key: k, Val: uint64(i)}
	}
	slices.SortFunc(recs, func(a, b seq.Record) int {
		if seq.TotalLess(a, b) {
			return -1
		}
		if seq.TotalLess(b, a) {
			return 1
		}
		return 0
	})
	return recs
}

// TestServeBinaryWire: a binary-framed job round-trips through both
// models with the sorted records back in a binary frame, the wire mode
// announced, and — for ext — the ledger headers carrying the measured
// and simulated write counts.
func TestServeBinaryWire(t *testing.T) {
	s := newTestService(t, 1<<14, 2, 64)
	for _, tc := range []struct {
		name, query, model string
		n                  int
	}{
		{"native", "", "native", 3000},
		{"ext", "?model=ext", "ext", 30000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := genKeys(tc.n, int64(tc.n))
			resp, body := s.postRaw(t, tc.query, wire.ContentType, "", frameOfKeys(t, keys, 777))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %.300s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("Content-Type"); got != wire.ContentType {
				t.Fatalf("response Content-Type %q", got)
			}
			if got := resp.Header.Get("X-Asymsortd-Wire"); got != "binary" {
				t.Fatalf("X-Asymsortd-Wire %q, want binary", got)
			}
			if got := resp.Header.Get("X-Asymsortd-Model"); got != tc.model {
				t.Fatalf("model %q, want %s", got, tc.model)
			}
			got := decodeFrame(t, body)
			want := sortedRecsOfKeys(keys)
			if len(got) != len(want) {
				t.Fatalf("%d records back, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d: got %v want %v", i, got[i], want[i])
				}
			}
			if tc.model == "ext" {
				w, pw := resp.Header.Get("X-Asymsortd-Writes"), resp.Header.Get("X-Asymsortd-Plan-Writes")
				if w == "" || w == "0" || w != pw {
					t.Fatalf("ledger headers writes=%q plan=%q, want equal and nonzero", w, pw)
				}
			}
		})
	}
}

// TestServeBinaryExactDuplicates: binary clients choose their payloads,
// so a frame may repeat exact records. On a K = 2 server a 1 500-record
// job under a 1024-record grant is one leaf of two selection passes,
// and copies of one (Key, Val) pair straddle the pass boundary; the
// sorted frame must hold every copy.
func TestServeBinaryExactDuplicates(t *testing.T) {
	b, err := NewBroker(BrokerConfig{Mem: 1 << 14, Procs: 2, MinLease: 16 * 64})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Broker: b, Block: 64, Omega: 8, K: 2, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	s := &testService{b: b, srv: srv, ts: ts}
	recs := make([]seq.Record, 1500)
	for i := range recs {
		recs[i] = seq.Record{Key: uint64(i % 10), Val: 1}
	}
	resp, body := s.postRaw(t, "?model=ext&mem=1024", wire.ContentType, "", frameOfRecords(t, recs, 500))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %.300s", resp.StatusCode, body)
	}
	slices.SortFunc(recs, seq.TotalCompare)
	if got := decodeFrame(t, body); !slices.Equal(got, recs) {
		t.Fatalf("got %d records, want the %d input records sorted", len(got), len(recs))
	}
}

// TestServeWireNegotiation: the response dialect mirrors the request
// unless Accept names one — every cross pairing must hold, and the
// sorted multiset must be identical in all four.
func TestServeWireNegotiation(t *testing.T) {
	s := newTestService(t, 1<<16, 2, 64)
	keys := genKeys(2000, 77)
	wantText := sortedText(keys)
	wantRecs := sortedRecsOfKeys(keys)

	check := func(name string, resp *http.Response, body []byte, binary bool) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %.300s", name, resp.StatusCode, body)
		}
		if binary {
			if resp.Header.Get("X-Asymsortd-Wire") != "binary" {
				t.Fatalf("%s: wire %q, want binary", name, resp.Header.Get("X-Asymsortd-Wire"))
			}
			got := decodeFrame(t, body)
			for i := range wantRecs {
				if got[i].Key != wantRecs[i].Key {
					t.Fatalf("%s: key %d differs", name, i)
				}
			}
		} else {
			if resp.Header.Get("X-Asymsortd-Wire") != "text" {
				t.Fatalf("%s: wire %q, want text", name, resp.Header.Get("X-Asymsortd-Wire"))
			}
			if string(body) != wantText {
				t.Fatalf("%s: text body differs", name)
			}
		}
	}

	resp, body := s.postRaw(t, "", "text/plain", "", []byte(keysText(keys)))
	check("text→text", resp, body, false)
	resp, body = s.postRaw(t, "", "text/plain", wire.ContentType, []byte(keysText(keys)))
	check("text→binary", resp, body, true)
	frame := frameOfKeys(t, keys, 500)
	resp, body = s.postRaw(t, "", wire.ContentType, "", frame)
	check("binary→binary", resp, body, true)
	resp, body = s.postRaw(t, "", wire.ContentType, "text/plain", frame)
	check("binary→text", resp, body, false)
}

// TestServeBinaryFrameEdgeCases drives the frame decoder through the
// live handler: well-formed edge shapes must 200 with the right count;
// malformed frames must 400 fast — never hang, never 200.
func TestServeBinaryFrameEdgeCases(t *testing.T) {
	s := newTestService(t, 1<<16, 1, 64)
	good := frameOfKeys(t, genKeys(1000, 5), 250)

	okCases := []struct {
		name string
		body []byte
		n    int
	}{
		{"empty body n=0", frameOfKeys(t, nil, 8), 0},
		{"single record", frameOfKeys(t, genKeys(1, 6), 8), 1},
		{"chunk-boundary exact", frameOfKeys(t, genKeys(1024, 7), 256), 1024},
	}
	for _, tc := range okCases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := s.postRaw(t, "", wire.ContentType, "", tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %.300s", resp.StatusCode, body)
			}
			if got := decodeFrame(t, body); len(got) != tc.n {
				t.Fatalf("%d records back, want %d", len(got), tc.n)
			}
		})
	}

	badCases := []struct {
		name string
		body []byte
	}{
		{"truncated header", good[:wire.HeaderBytes-4]},
		{"truncated mid-chunk", good[:wire.HeaderBytes+4+13]},
		{"missing terminator", good[:len(good)-4]},
		{"version mismatch", func() []byte {
			raw := bytes.Clone(good)
			binary.LittleEndian.PutUint16(raw[4:6], wire.Version+1)
			return raw
		}()},
		{"bad magic", func() []byte {
			raw := bytes.Clone(good)
			raw[0] = 'Z'
			return raw
		}()},
		{"count mismatch", func() []byte {
			raw := bytes.Clone(good)
			binary.LittleEndian.PutUint64(raw[8:16], 999)
			return raw
		}()},
	}
	for _, tc := range badCases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := s.postRaw(t, "", wire.ContentType, "", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d (%.300s), want 400", resp.StatusCode, body)
			}
		})
	}
	// Lease release races the 400 reaching the client; poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for s.stats(t).Broker.FreeMem != 1<<16 {
		if time.Now().After(deadline) {
			t.Fatal("malformed frames leaked lease memory")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeHeadersSurviveLargeResponse is the header-ordering
// regression: every X-Asymsortd-* header must be present on responses
// well past any writer flush boundary (>1MB), in both wire modes.
func TestServeHeadersSurviveLargeResponse(t *testing.T) {
	s := newTestService(t, 1<<19, 2, 64)
	keys := genKeys(100000, 11) // ~2MB text, ~1.6MB binary

	resp, body := s.postRaw(t, "", "text/plain", "", []byte(keysText(keys)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text: status %d", resp.StatusCode)
	}
	if len(body) <= 1<<20 {
		t.Fatalf("text response only %d bytes; the regression needs >1MB", len(body))
	}
	for _, h := range []string{"X-Asymsortd-Job", "X-Asymsortd-Model", "X-Asymsortd-Mem", "X-Asymsortd-Wire"} {
		if resp.Header.Get(h) == "" {
			t.Errorf("text: header %s missing on a >1MB response", h)
		}
	}
	if string(body) != sortedText(keys) {
		t.Fatal("text: large response body diverges")
	}

	resp, body = s.postRaw(t, "", wire.ContentType, "", frameOfKeys(t, keys, 4096))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary: status %d", resp.StatusCode)
	}
	if len(body) <= 1<<20 {
		t.Fatalf("binary response only %d bytes; the regression needs >1MB", len(body))
	}
	for _, h := range []string{"X-Asymsortd-Job", "X-Asymsortd-Model", "X-Asymsortd-Mem", "X-Asymsortd-Wire"} {
		if resp.Header.Get(h) == "" {
			t.Errorf("binary: header %s missing on a >1MB response", h)
		}
	}
	if got := decodeFrame(t, body); len(got) != len(keys) {
		t.Fatalf("binary: %d records back, want %d", len(got), len(keys))
	}
}

// TestServeTooLongLine: a text line past the scanner cap must surface
// as a line-numbered 400, not an opaque token-too-long error.
func TestServeTooLongLine(t *testing.T) {
	s := newTestService(t, 1<<13, 1, 64)
	body := "17\n42\n" + strings.Repeat("9", wire.MaxLineBytes+16) + "\n"
	code, msg, _ := s.postSort(t, context.Background(), "", body)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if !strings.Contains(msg, "line 3") {
		t.Fatalf("error %q does not name the offending line", msg)
	}
}
