package kernel

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"asymsort/internal/co"
	"asymsort/internal/extmem"
	"asymsort/internal/icache"
	"asymsort/internal/rt"
	"asymsort/internal/seq"
	"asymsort/internal/wd"
)

// paramsFor returns working parameters for each kernel on an n-record
// input.
func paramsFor(name string, n int) Params {
	switch name {
	case "histogram":
		return Params{Buckets: 7}
	case "top-k":
		return Params{K: 9}
	case "merge-join":
		return Params{LeftN: n / 3}
	}
	return Params{}
}

func eachBackend(t *testing.T, f func(t *testing.T, name string, c rt.Ctx)) {
	t.Helper()
	f(t, "simco", rt.NewSimCO(co.NewCtx(icache.New(64, 64, 8, icache.PolicyRWLRU))))
	f(t, "simwd", rt.NewSimWD(wd.NewRoot(8)))
	f(t, "native1", rt.NewNative(rt.NewPool(1), 8))
	f(t, "native4", rt.NewNative(rt.NewPool(4), 8))
}

func materialize(c rt.Ctx, a rt.Arr[seq.Record]) []seq.Record {
	out := make([]seq.Record, a.Len())
	for i := range out {
		out[i] = a.Get(c, i)
	}
	return out
}

func recordsEqual(t *testing.T, label string, got, want []seq.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestRegistry(t *testing.T) {
	want := []string{"histogram", "merge-join", "semisort", "sort", "top-k"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		k, ok := Get(name)
		if !ok || k.Name != name {
			t.Fatalf("Get(%q) = %v, %v", name, k, ok)
		}
		if k.Doc == "" || k.Baseline == "" {
			t.Fatalf("kernel %s is missing Doc or Baseline", name)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("Get of an unregistered name succeeded")
	}
}

func TestCheckRejectsBadParams(t *testing.T) {
	cases := []struct {
		kernel string
		n      int
		p      Params
	}{
		{"histogram", 10, Params{Buckets: 0}},
		{"histogram", 10, Params{Buckets: -3}},
		{"histogram", 10, Params{Buckets: 1 << 25}},
		{"top-k", 10, Params{K: 0}},
		{"top-k", 10, Params{K: -1}},
		{"merge-join", 10, Params{LeftN: -1}},
		{"merge-join", 10, Params{LeftN: 11}},
	}
	for _, tc := range cases {
		k, _ := Get(tc.kernel)
		if err := k.Check(tc.n, tc.p); err == nil {
			t.Errorf("%s.Check(%d, %+v) accepted invalid params", tc.kernel, tc.n, tc.p)
		}
	}
	for _, name := range Names() {
		k, _ := Get(name)
		if err := k.Check(100, paramsFor(name, 100)); err != nil {
			t.Errorf("%s.Check rejected working params: %v", name, err)
		}
	}
}

// TestRunMatchesRef is the in-memory differential: every kernel's Run on
// every backend against its Ref, over duplicate-heavy, distinct, and
// degenerate inputs.
func TestRunMatchesRef(t *testing.T) {
	inputs := map[string][]seq.Record{
		"empty":    {},
		"one":      {{Key: 42, Val: 7}},
		"uniform":  seq.Uniform(300, 11),
		"dupheavy": seq.FewDistinct(300, 17, 23),
		"sorted":   seq.Sorted(128),
	}
	for _, name := range Names() {
		k, _ := Get(name)
		for iname, in := range inputs {
			p := paramsFor(name, len(in))
			if err := k.Check(len(in), p); err != nil {
				t.Fatalf("%s/%s: %v", name, iname, err)
			}
			want := k.Ref(in, p)
			eachBackend(t, func(t *testing.T, backend string, c rt.Ctx) {
				got := materialize(c, k.Run(c, rt.FromSlice(c, in), p))
				recordsEqual(t, name+"/"+iname+"/"+backend, got, want)
			})
		}
	}
}

// extConfigs are the budget shapes the external differential runs under:
// a multi-level plan, a single-run (root-is-leaf) plan, and a parallel
// engine.
func extConfigs() map[string]extmem.Config {
	return map[string]extmem.Config{
		"multilevel": {Mem: 64, Block: 8, K: 2, Procs: 1},
		"singlerun":  {Mem: 1 << 16, Block: 8, K: 2, Procs: 1},
		"parallel":   {Mem: 64, Block: 8, K: 2, Procs: 4},
	}
}

// runExt stages in (after skip leading pad records), runs the kernel's
// external composition in a private temp dir, and asserts the spill dir
// holds nothing but the input and output files afterwards.
func runExt(t *testing.T, k *Kernel, cfg extmem.Config, in []seq.Record, skip int, p Params) (*ExtResult, []seq.Record) {
	t.Helper()
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	outPath := filepath.Join(dir, "out.bin")
	staged := make([]seq.Record, 0, skip+len(in))
	for i := 0; i < skip; i++ {
		staged = append(staged, seq.Record{Key: ^uint64(0), Val: uint64(i)})
	}
	staged = append(staged, in...)
	if err := extmem.WriteRecordsFile(inPath, staged); err != nil {
		t.Fatal(err)
	}
	cfg.TmpDir = dir
	cfg.InSkip = skip
	res, err := k.Ext(cfg, inPath, outPath, p)
	if err != nil {
		t.Fatalf("%s ext: %v", k.Name, err)
	}
	out, err := extmem.ReadRecordsFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "in.bin" && e.Name() != "out.bin" {
			t.Fatalf("%s ext left %s in the spill dir", k.Name, e.Name())
		}
	}
	return res, out
}

// TestExtMatchesRefAndLedger is the external differential plus the
// per-kernel ledger identity: output record-for-record equal to Ref, and
// measured block writes exactly equal to the composition's PlanWrites.
func TestExtMatchesRefAndLedger(t *testing.T) {
	inputs := map[string][]seq.Record{
		"uniform":  seq.Uniform(700, 5),
		"dupheavy": seq.FewDistinct(700, 29, 31),
	}
	for cname, cfg := range extConfigs() {
		for _, name := range Names() {
			k, _ := Get(name)
			for iname, in := range inputs {
				p := paramsFor(name, len(in))
				res, out := runExt(t, k, cfg, in, 0, p)
				label := name + "/" + cname + "/" + iname
				recordsEqual(t, label, out, k.Ref(in, p))
				if res.OutN != len(out) {
					t.Errorf("%s: OutN = %d, want %d", label, res.OutN, len(out))
				}
				if res.Total.Writes != res.PlanWrites {
					t.Errorf("%s: measured %d block writes, planned %d",
						label, res.Total.Writes, res.PlanWrites)
				}
				if res.Total.Reads == 0 {
					t.Errorf("%s: ledger recorded no reads", label)
				}
			}
		}
	}
}

// TestTopKExtMultiSpan drives top-k's selection through many scan
// spans: 20 000 records behind a one-record skip prefix take three
// RecordScanner spans, so later spans' survivors are merged into the
// candidates. The inputs are uniform records and records of which half
// are copies of five exact pairs. Output must equal Ref, and the ledger
// must hold exactly the ⌈(1+n)/B⌉ blocks the scan touches and the
// ⌈k/B⌉ blocks written.
func TestTopKExtMultiSpan(t *testing.T) {
	const n = 20000
	pairs := seq.Uniform(n, 19)
	for i := 0; i < n; i += 2 {
		pairs[i] = seq.Record{Key: pairs[i].Key % 5 << 61, Val: 1}
	}
	inputs := map[string][]seq.Record{"uniform": seq.Uniform(n, 17), "repeatedpairs": pairs}
	topk, _ := Get("top-k")
	for cname, cfg := range extConfigs() {
		for iname, in := range inputs {
			for _, k := range []int{1, 9, cfg.Mem} {
				p := Params{K: k}
				res, out := runExt(t, topk, cfg, in, 1, p)
				label := fmt.Sprintf("%s/%s/k=%d", cname, iname, k)
				recordsEqual(t, label, out, topk.Ref(in, p))
				reads, writes := blocksOf(1+n, cfg.Block), blocksOf(min(k, n), cfg.Block)
				if res.Total.Reads != reads || res.Total.Writes != writes {
					t.Errorf("%s: ledger %d reads, %d writes; want %d, %d",
						label, res.Total.Reads, res.Total.Writes, reads, writes)
				}
			}
		}
	}
}

// TestExtHonorsInSkip pins the wire-header handoff: a skip prefix must
// be invisible to every composition.
func TestExtHonorsInSkip(t *testing.T) {
	in := seq.FewDistinct(300, 13, 7)
	cfg := extmem.Config{Mem: 64, Block: 8, K: 2, Procs: 1}
	for _, name := range Names() {
		k, _ := Get(name)
		p := paramsFor(name, len(in))
		_, out := runExt(t, k, cfg, in, 1, p)
		recordsEqual(t, name+"/skip1", out, k.Ref(in, p))
	}
}

// TestExtEmptyInput pins the degenerate file: every composition must
// accept zero payload records.
func TestExtEmptyInput(t *testing.T) {
	cfg := extmem.Config{Mem: 64, Block: 8, K: 2, Procs: 1}
	for _, name := range Names() {
		k, _ := Get(name)
		p := paramsFor(name, 0)
		res, out := runExt(t, k, cfg, nil, 0, p)
		recordsEqual(t, name+"/empty", out, k.Ref(nil, p))
		if res.Total.Writes != res.PlanWrites {
			t.Errorf("%s/empty: measured %d block writes, planned %d",
				name, res.Total.Writes, res.PlanWrites)
		}
	}
}

// TestSemisortStreamedLevels pins the two Post-streamer code paths in
// the engine: the fused root-is-leaf formation (Levels == 0) — in one
// pass at n ≤ M and in selection passes at M < n ≤ kM — and the
// streamed root merge (Levels >= 1), all with the adjusted PlanWrites.
func TestSemisortStreamedLevels(t *testing.T) {
	k, _ := Get("semisort")
	in := seq.FewDistinct(900, 37, 3)
	cfgs := extConfigs()
	// 900 records under M = 256, kM = 1024: one leaf of 4 passes.
	cfgs["multipass"] = extmem.Config{Mem: 256, Block: 8, K: 4, Procs: 1}
	cfgs["multipass-par"] = extmem.Config{Mem: 256, Block: 8, K: 4, Procs: 4}
	for cname, cfg := range cfgs {
		res, out := runExt(t, k, cfg, in, 0, Params{})
		if len(res.Sorts) != 1 {
			t.Fatalf("%s: %d sort reports, want 1", cname, len(res.Sorts))
		}
		rep := res.Sorts[0]
		switch cname {
		case "singlerun", "multipass", "multipass-par":
			if rep.Levels != 0 {
				t.Fatalf("%s: plan has %d levels, want 0", cname, rep.Levels)
			}
		default:
			if rep.Levels < 1 {
				t.Fatalf("%s: plan has %d levels, want >= 1", cname, rep.Levels)
			}
		}
		want := RefReduceByKey(in)
		recordsEqual(t, "semisort/"+cname, out, want)
		if rep.OutN != len(want) {
			t.Errorf("%s: report OutN = %d, want %d groups", cname, rep.OutN, len(want))
		}
		if res.Total.Writes != res.PlanWrites {
			t.Errorf("%s: measured %d block writes, planned %d",
				cname, res.Total.Writes, res.PlanWrites)
		}
	}
}

// TestSortExtOutputUnchangedByKernelWrap pins that the sort kernel's
// composition is extmem.Sort verbatim — same bytes, same ledger.
func TestSortExtOutputUnchangedByKernelWrap(t *testing.T) {
	in := seq.Uniform(500, 77)
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	if err := extmem.WriteRecordsFile(inPath, in); err != nil {
		t.Fatal(err)
	}
	cfg := extmem.Config{Mem: 64, Block: 8, K: 2, Procs: 1, TmpDir: dir}
	direct, err := extmem.Sort(cfg, inPath, filepath.Join(dir, "direct.bin"))
	if err != nil {
		t.Fatal(err)
	}
	k, _ := Get("sort")
	res, err := k.Ext(cfg, inPath, filepath.Join(dir, "kernel.bin"), Params{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(filepath.Join(dir, "direct.bin"))
	if err != nil {
		t.Fatal(err)
	}
	kb, err := os.ReadFile(filepath.Join(dir, "kernel.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if string(db) != string(kb) {
		t.Fatal("sort kernel output differs from extmem.Sort output")
	}
	if res.Total != direct.Total || res.PlanWrites != direct.PlanWrites {
		t.Fatalf("sort kernel ledger %+v/%d differs from extmem.Sort %+v/%d",
			res.Total, res.PlanWrites, direct.Total, direct.PlanWrites)
	}
}

// TestTopKExtBudget pins the k-exceeds-memory guard.
func TestTopKExtBudget(t *testing.T) {
	in := seq.Uniform(100, 1)
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	if err := extmem.WriteRecordsFile(inPath, in); err != nil {
		t.Fatal(err)
	}
	k, _ := Get("top-k")
	cfg := extmem.Config{Mem: 16, Block: 8, K: 2, Procs: 1, TmpDir: dir}
	if _, err := k.Ext(cfg, inPath, filepath.Join(dir, "out.bin"), Params{K: 17}); err == nil {
		t.Fatal("top-k accepted k beyond the memory budget")
	}
}

// TestMergeJoinExtGroupBudget pins the right-group buffer guard: a key
// group wider than the memory budget must error, not overrun.
func TestMergeJoinExtGroupBudget(t *testing.T) {
	n := 64
	in := make([]seq.Record, 0, 2*n)
	for i := 0; i < n; i++ {
		in = append(in, seq.Record{Key: 1, Val: uint64(i)})
	}
	for i := 0; i < n; i++ {
		in = append(in, seq.Record{Key: 1, Val: uint64(n + i)})
	}
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	if err := extmem.WriteRecordsFile(inPath, in); err != nil {
		t.Fatal(err)
	}
	k, _ := Get("merge-join")
	cfg := extmem.Config{Mem: 16, Block: 8, K: 1, Procs: 1, TmpDir: dir}
	if _, err := k.Ext(cfg, inPath, filepath.Join(dir, "out.bin"), Params{LeftN: n}); err == nil {
		t.Fatal("merge-join accepted a right key group beyond the memory budget")
	}
}
