package main

// Tests of the daemon's one entry, run: job engines and a coordinator
// booted from flags on port-0 listeners, driven over HTTP and drained
// by cancelling their context, and the flag errors that must return
// before anything listens.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// daemon is one asymsortd started through run on its own goroutine.
type daemon struct {
	url    string
	cancel context.CancelFunc
	errc   chan error  // run's result
	outc   chan string // everything run printed, once it has returned

	once sync.Once
	out  string
	err  error
}

// start runs asymsortd with args and returns once its banner has named
// the bound address. The daemon is stopped when the test ends.
func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	d := &daemon{cancel: cancel, errc: make(chan error, 1), outc: make(chan string, 1)}
	go func() {
		err := run(ctx, args, pw)
		pw.Close()
		d.errc <- err
	}()
	br := bufio.NewReader(pr)
	var out strings.Builder
	for d.url == "" {
		line, err := br.ReadString('\n')
		out.WriteString(line)
		if err != nil {
			cancel()
			t.Fatalf("asymsortd %v printed no address (run: %v):\n%s", args, <-d.errc, out.String())
		}
		if _, addr, ok := strings.Cut(strings.TrimSpace(line), "ing on "); ok {
			d.url = "http://" + addr
		}
	}
	go func() {
		io.Copy(&out, br)
		d.outc <- out.String()
	}()
	t.Cleanup(func() { d.stop() })
	return d
}

// stop cancels the daemon's context, waits for run to return, and
// returns everything it printed and its error.
func (d *daemon) stop() (string, error) {
	d.once.Do(func() {
		d.cancel()
		d.err = <-d.errc
		d.out = <-d.outc
	})
	return d.out, d.err
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

// post sends body to url and requires a 200.
func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %.300s", url, resp.StatusCode, out)
	}
	return resp, out
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestSoloDaemon boots a job engine from flags: one forced-ext /sort
// comes back as the sorted keys with its measured block writes equal
// to the plan, /healthz says ok, and the drain returns nil, leaves the
// spill dir holding only the ω meter it persisted, and leaves the
// job's two trace files. A daemon that served nothing persists the
// meter at its drain all the same.
func TestSoloDaemon(t *testing.T) {
	tmp, traces := t.TempDir(), filepath.Join(t.TempDir(), "traces")
	d := start(t, "-addr", "127.0.0.1:0", "-mem", "8MB", "-b", "64", "-tmpdir", tmp, "-trace-dir", traces)

	keys := genKeys(20000, 1)
	resp, body := post(t, d.url+"/sort?model=ext&mem=4096", keysText(keys))
	if string(body) != sortedText(keys) {
		t.Fatal("response is not the sorted key text")
	}
	w, pw := resp.Header.Get("X-Asymsortd-Writes"), resp.Header.Get("X-Asymsortd-Plan-Writes")
	if n, err := strconv.Atoi(w); err != nil || n <= 0 || w != pw {
		t.Fatalf("ledger writes=%q plan=%q, want equal and > 0", w, pw)
	}

	hresp, err := http.Get(d.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct{ Status string }
	err = json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if err != nil || health.Status != "ok" {
		t.Fatalf("/healthz status %q (%v), want ok", health.Status, err)
	}

	out, err := d.stop()
	if err != nil {
		t.Fatalf("run after the drain: %v\n%s", err, out)
	}
	if got := dirNames(t, tmp); !slices.Equal(got, []string{".asymsort-omega.json"}) {
		t.Fatalf("spill dir after the drain holds %q, want only the ω meter", got)
	}
	if got := dirNames(t, traces); !slices.Equal(got, []string{"job-0.chrome.json", "job-0.trace.jsonl"}) {
		t.Fatalf("trace dir holds %q", got)
	}

	// An ext job saves the meter too; with none, only the drain does.
	idle := t.TempDir()
	if out, err := start(t, "-addr", "127.0.0.1:0", "-tmpdir", idle).stop(); err != nil {
		t.Fatalf("idle daemon's run after the drain: %v\n%s", err, out)
	}
	if got := dirNames(t, idle); !slices.Equal(got, []string{".asymsort-omega.json"}) {
		t.Fatalf("idle daemon's tmpdir after the drain holds %q, want only the ω meter", got)
	}
}

// TestCoordinatorDaemon boots three job engines and a coordinator over
// them from flags: a /sort through the coordinator equals the same
// body sorted by one worker. The banner states the dispatch the
// coordinator resolved, so -shards 2 over three workers reads 2 beside
// the flags' default 2 retries. -retries 0 is a flag error
// (TestFlagErrors).
func TestCoordinatorDaemon(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, start(t, "-addr", "127.0.0.1:0", "-mem", "8MB", "-b", "64", "-tmpdir", t.TempDir()).url)
	}
	workers := strings.Join(urls, ",")
	coord := start(t, "-coordinator", "-workers", workers, "-addr", "127.0.0.1:0",
		"-shards", "6", "-retries", "3", "-hedge", "5s", "-tmpdir", t.TempDir())

	body := keysText(genKeys(30000, 2))
	_, got := post(t, coord.url+"/sort", body)
	_, want := post(t, urls[0]+"/sort?model=ext", body)
	if !bytes.Equal(got, want) {
		t.Fatal("coordinator output differs from one worker's")
	}

	for _, tc := range []struct {
		d    *daemon
		want string
	}{
		{coord, "dispatch : shards=6 retries=3 hedge=5s"},
		{start(t, "-coordinator", "-workers", workers, "-addr", "127.0.0.1:0",
			"-shards", "2"), "dispatch : shards=2 retries=2 hedge=0s"},
	} {
		out, err := tc.d.stop()
		if err != nil || !strings.Contains(out, tc.want) {
			t.Fatalf("run: %v; banner lacks %q:\n%s", err, tc.want, out)
		}
	}
}

// TestFlagErrors: a bad -mem, a bad -admission, -coordinator without
// -workers and a coordinator's -retries below 1 are errors that return
// before anything listens.
// run gets a context that is already done, so a daemon that started
// serving would drain at once and return nil.
func TestFlagErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-mem", "lots"},
		{"-admission", "lifo"},
		{"-coordinator"},
		{"-coordinator", "-workers", "http://127.0.0.1:1", "-retries", "0"},
	} {
		var out bytes.Buffer
		err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &out)
		if err == nil || out.Len() > 0 {
			t.Errorf("%v: err=%v, printed %q; want an error and no banner", args, err, out.String())
		}
	}
}

// TestSlowHeaderClosed: a connection that sends half a request line and
// then stalls is closed once the header timeout passes, by the job
// engine and by the coordinator alike. net/http answers the torn
// request line with a 400 before it closes.
func TestSlowHeaderClosed(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 200 * time.Millisecond
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:0", "-mem", "8MB", "-tmpdir", t.TempDir()},
		{"-coordinator", "-workers", "http://127.0.0.1:1", "-addr", "127.0.0.1:0", "-tmpdir", t.TempDir()},
	} {
		d := start(t, args...)
		begin := time.Now() // before the dial: the server's clock starts at its accept
		conn, err := net.Dial("tcp", strings.TrimPrefix(d.url, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, "GET /heal"); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(begin.Add(5 * time.Second))
		got, err := io.ReadAll(conn)
		conn.Close()
		if err != nil {
			t.Fatalf("%v: the stalled connection is still open after %v: %v", args, time.Since(begin), err)
		}
		if len(got) > 0 && !strings.HasPrefix(string(got), "HTTP/1.1 400 ") || time.Since(begin) < readHeaderTimeout {
			t.Fatalf("%v: closed after %v with %q; want nothing or a 400, after the %v header timeout",
				args, time.Since(begin), got, readHeaderTimeout)
		}
		if out, err := d.stop(); err != nil {
			t.Fatalf("%v: run after the drain: %v\n%s", args, err, out)
		}
	}
}
