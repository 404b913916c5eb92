package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"asymsort/internal/cluster"
	"asymsort/internal/serve"
)

// newTestService stands up an in-process asymsortd: real broker, real
// handler, loopback HTTP.
func newTestService(t *testing.T) *httptest.Server {
	t.Helper()
	broker, err := serve.NewBroker(serve.BrokerConfig{Mem: 1 << 16, Procs: 2, MinLease: 1024})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.ServerConfig{Broker: broker, Block: 64, Omega: 8, TmpDir: t.TempDir()})
	if err != nil {
		broker.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		broker.Close()
	})
	return ts
}

// TestWireDifferential runs the identical seeded job mix against fresh
// services in every wire mode — text, binary, and mixed — serialized so
// server job ids line up with the mix. run itself verifies each
// response (order, count, multiset checksum) and the write-ledger
// identity; on top of that the -save dumps must be byte-identical
// across modes (the dialect may not change what gets sorted) and the
// per-job /stats ledgers of the text and binary runs must match
// exactly: same measured block writes, same simulated plan.
func TestWireDifferential(t *testing.T) {
	const seed, jobs = 7, 6
	saves := map[string]string{}
	ledgers := map[string]statsPayload{}
	for _, mode := range []string{"text", "binary", "mixed"} {
		ts := newTestService(t)
		save := filepath.Join(t.TempDir(), mode)
		if err := run(ts.URL, jobs, 1, seed, 2000, 12000, "uniform,dups,sorted,reversed", 0,
			"ext", 0, save, mode, "sort", true, false, ""); err != nil {
			t.Fatalf("%s run: %v", mode, err)
		}
		saves[mode] = save
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var snap statsPayload
		err = decodeJSON(resp.Body, &snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		ledgers[mode] = snap
	}

	for _, mode := range []string{"binary", "mixed"} {
		for i := 0; i < jobs; i++ {
			for _, kind := range []string{"in", "out"} {
				name := fmt.Sprintf("job-%d-%s.txt", i, kind)
				want, err := os.ReadFile(filepath.Join(saves["text"], name))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(saves[mode], name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s dump %s differs from the text run's", mode, name)
				}
			}
		}
	}

	txt, bin := ledgers["text"], ledgers["binary"]
	if len(txt.Jobs) != jobs || len(bin.Jobs) != jobs {
		t.Fatalf("stats cover %d and %d jobs, want %d", len(txt.Jobs), len(bin.Jobs), jobs)
	}
	byID := func(snap statsPayload, id int) (writes, plan uint64) {
		for _, j := range snap.Jobs {
			if j.ID == id {
				return j.Writes, j.PlanWrites
			}
		}
		t.Fatalf("job %d missing from /stats", id)
		return 0, 0
	}
	for i := 0; i < jobs; i++ {
		tw, tp := byID(txt, i)
		bw, bp := byID(bin, i)
		if tw == 0 || tp == 0 {
			t.Fatalf("job %d: text ledger is empty (writes=%d plan=%d)", i, tw, tp)
		}
		if tw != bw || tp != bp {
			t.Fatalf("job %d: text ledger writes=%d plan=%d, binary writes=%d plan=%d",
				i, tw, tp, bw, bp)
		}
		if tw != tp {
			t.Fatalf("job %d: measured writes %d != plan writes %d", i, tw, tp)
		}
	}
}

// TestWireModeAssignment pins the mixed-mode alternation rule: even job
// ids speak text, odd ids speak the frame dialect.
func TestWireModeAssignment(t *testing.T) {
	for _, tc := range []struct {
		mode string
		id   int
		want bool
	}{
		{"text", 0, false}, {"text", 1, false},
		{"binary", 0, true}, {"binary", 1, true},
		{"mixed", 0, false}, {"mixed", 1, true}, {"mixed", 2, false}, {"mixed", 3, true},
	} {
		got := tc.mode == "binary" || (tc.mode == "mixed" && tc.id%2 == 1)
		if got != tc.want {
			t.Fatalf("mode %s job %d: binary=%v, want %v", tc.mode, tc.id, got, tc.want)
		}
	}
	if err := run("http://127.0.0.1:1", 1, 1, 1, 1, 1, "uniform", 0, "auto", 0, "", "bogus", "sort", false, false, ""); err == nil {
		t.Fatal("bad -wire value was accepted")
	}
	if err := run("http://127.0.0.1:1", 1, 1, 1, 1, 1, "uniform", 0, "auto", 0, "", "text", "sort,bogus", false, false, ""); err == nil {
		t.Fatal("bad -kernels value was accepted")
	}
}

// TestClusterLoad points the seeded mix at a real coordinator over
// three loopback workers in -cluster mode, then replays the identical
// mix against a solo service. run verifies each response on the wire
// and checks the coordinator's books; the -save dumps of the two runs
// must be byte-identical — the cluster scatter/gather may not change a
// single output byte.
func TestClusterLoad(t *testing.T) {
	const seed, jobs = 13, 6
	var workers []string
	for i := 0; i < 3; i++ {
		workers = append(workers, newTestService(t).URL)
	}
	coord, err := cluster.New(cluster.Config{
		Workers: workers, Shards: 6, TmpDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	clusterSave := filepath.Join(t.TempDir(), "cluster")
	if err := run(cts.URL, jobs, 2, seed, 2000, 12000, "uniform,dups,sorted,reversed,equal", 0,
		"ext", 0, clusterSave, "mixed", "sort", false, true, ""); err != nil {
		t.Fatalf("cluster run: %v", err)
	}

	soloSave := filepath.Join(t.TempDir(), "solo")
	solo := newTestService(t)
	if err := run(solo.URL, jobs, 2, seed, 2000, 12000, "uniform,dups,sorted,reversed,equal", 0,
		"ext", 0, soloSave, "mixed", "sort", false, false, ""); err != nil {
		t.Fatalf("solo run: %v", err)
	}

	for i := 0; i < jobs; i++ {
		for _, kind := range []string{"in", "out"} {
			name := fmt.Sprintf("job-%d-%s.txt", i, kind)
			want, err := os.ReadFile(filepath.Join(soloSave, name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(clusterSave, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cluster dump %s differs from the solo run's", name)
			}
		}
	}

	if err := run(cts.URL, 1, 1, 1, 1000, 1000, "uniform", 0, "auto", 0, "", "text",
		"sort,semisort", false, true, ""); err == nil {
		t.Fatal("-cluster accepted a non-sort kernel pool")
	}
	if err := run(cts.URL, 1, 1, 1, 1000, 1000, "uniform", 0, "auto", 0, "", "text",
		"sort", true, true, ""); err == nil {
		t.Fatal("-cluster accepted -metrics")
	}
}

// TestMixedLoadClasses drives a -mix mixed scenario and checks the
// server side saw the admission classes the generator promises: small
// jobs carry priority 4 and a 1s deadline, bulk jobs ride the default
// class, and both classes actually appear in the mix.
func TestMixedLoadClasses(t *testing.T) {
	const seed, jobs = 17, 8
	ts := newTestService(t)
	if err := run(ts.URL, jobs, 2, seed, 2000, 12000, "uniform", 0,
		"ext", 0, "", "text", "sort", false, false, "mixed"); err != nil {
		t.Fatalf("mixed run: %v", err)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap statsPayload
	err = decodeJSON(resp.Body, &snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != jobs {
		t.Fatalf("stats cover %d jobs, want %d", len(snap.Jobs), jobs)
	}
	var small, bulk int
	for _, j := range snap.Jobs {
		switch {
		case j.Priority == 4 && j.DeadlineMS == 1000:
			small++
		case j.Priority == 0 && j.DeadlineMS == 0:
			bulk++
		default:
			t.Fatalf("job %d carries an unexpected class: priority=%d deadline_ms=%d",
				j.ID, j.Priority, j.DeadlineMS)
		}
		if j.State != "done" {
			t.Fatalf("job %d ended %q", j.ID, j.State)
		}
	}
	if small == 0 || bulk == 0 {
		t.Fatalf("mixed scenario produced %d small and %d bulk jobs; want both classes", small, bulk)
	}

	if err := run("http://127.0.0.1:1", 1, 1, 1, 1, 1, "uniform", 0, "auto", 0, "", "text", "sort", false, false, "bogus"); err == nil {
		t.Fatal("bad -mix value was accepted")
	}
	if err := run("http://127.0.0.1:1", 1, 1, 1, 1, 1, "uniform", 0, "auto", 0, "", "text", "sort,semisort", false, false, "latency"); err == nil {
		t.Fatal("-mix accepted a non-sort kernel pool")
	}
}

// TestKernelMixDifferential drives a mixed-kernel workload — every
// registry kernel in the pool — over both wire dialects against a
// fresh service each time. run itself performs the per-kernel
// differential verification (each non-sort response is compared record
// for record against the kernel's in-memory reference recomputed
// client-side) and cross-checks the /stats ledger identity, so the
// assertion here is that the whole mix passes, that every kernel in
// the pool actually ran, and that the per-kernel aggregates carry the
// write identity.
func TestKernelMixDifferential(t *testing.T) {
	const seed, jobs = 11, 10
	pool := "sort,semisort,histogram,top-k,merge-join"
	for _, mode := range []string{"text", "binary"} {
		ts := newTestService(t)
		if err := run(ts.URL, jobs, 2, seed, 2000, 12000, "uniform,dups,sorted,reversed", 0,
			"ext", 0, "", mode, pool, true, false, ""); err != nil {
			t.Fatalf("%s kernel mix: %v", mode, err)
		}
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var snap statsPayload
		err = decodeJSON(resp.Body, &snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Jobs) != jobs {
			t.Fatalf("%s: stats cover %d jobs, want %d", mode, len(snap.Jobs), jobs)
		}
		ranKernels := map[string]bool{}
		for _, j := range snap.Jobs {
			if j.State != "done" {
				t.Fatalf("%s: job %d (%s) ended %q", mode, j.ID, j.Kernel, j.State)
			}
			ranKernels[j.Kernel] = true
			if j.Writes == 0 || j.Writes != j.PlanWrites {
				t.Fatalf("%s: job %d (%s): writes=%d plan=%d", mode, j.ID, j.Kernel, j.Writes, j.PlanWrites)
			}
		}
		if len(ranKernels) < 3 {
			t.Fatalf("%s: the seeded mix exercised only %d distinct kernels: %v", mode, len(ranKernels), ranKernels)
		}
		for name, agg := range snap.Kernels {
			if agg.Done == 0 || agg.Writes != agg.PlanWrites {
				t.Fatalf("%s: kernel %s aggregate done=%d writes=%d plan=%d",
					mode, name, agg.Done, agg.Writes, agg.PlanWrites)
			}
		}
	}
}
