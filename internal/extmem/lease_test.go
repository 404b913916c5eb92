package extmem

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"asymsort/internal/rt"
	"asymsort/internal/seq"
)

// testLease is a Lease test double: an atomic grant plus a one-shot
// cancel channel. onMem, when non-nil, runs on every Mem call — the
// deterministic hook the cancellation tests use to revoke the lease at
// an exact engine phase boundary.
type testLease struct {
	mem    atomic.Int64
	calls  atomic.Int64
	cancel chan struct{}
	once   sync.Once
	onMem  func(call int64, l *testLease)
}

func newTestLease(mem int) *testLease {
	l := &testLease{cancel: make(chan struct{})}
	l.mem.Store(int64(mem))
	return l
}

func (l *testLease) Mem() int {
	n := l.calls.Add(1)
	if l.onMem != nil {
		l.onMem(n, l)
	}
	return int(l.mem.Load())
}

func (l *testLease) Canceled() <-chan struct{} { return l.cancel }

func (l *testLease) Cancel() { l.once.Do(func() { close(l.cancel) }) }

// TestLeaseResizeKeepsOutputAndWriteLedger rebalances a running sort's
// grant at every level boundary — growing, shrinking to a single
// block, and back — and asserts the output and the block-write ledger
// are identical to the fixed-budget run: the lease resizes only the
// read-side buffering, never the plan.
func TestLeaseResizeKeepsOutputAndWriteLedger(t *testing.T) {
	const n, mem, block = 20000, 128, 16
	in := seq.Uniform(n, 77)
	base := runSort(t, Config{Mem: mem, Block: block, K: 1, Procs: 1}, in)

	grants := []int64{4 * mem, block, 1, mem / 2, 16 * mem}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			l := newTestLease(mem)
			l.onMem = func(call int64, l *testLease) {
				l.mem.Store(grants[int(call)%len(grants)])
			}
			rep := runSort(t, Config{Mem: mem, Block: block, K: 1, Procs: procs, Lease: l}, in)
			if l.calls.Load() == 0 {
				t.Fatal("engine never consulted the lease")
			}
			if rep.Total.Writes != base.Total.Writes {
				t.Errorf("write ledger moved under lease resizing: %d, fixed-budget run wrote %d",
					rep.Total.Writes, base.Total.Writes)
			}
			if rep.PlanWrites != base.PlanWrites || rep.Total.Writes != rep.PlanWrites {
				t.Errorf("plan identity broken: measured %d, plan %d (fixed-run plan %d)",
					rep.Total.Writes, rep.PlanWrites, base.PlanWrites)
			}
		})
	}
}

// TestLeaseGrowthPastStage grows the grant far enough that every merge
// writer's share M/(f+1) is wider than one stage, so the write buffer
// is carved from the (regrown) arena instead of the formation read
// chunk. Output and the write ledger must match the fixed-budget run.
func TestLeaseGrowthPastStage(t *testing.T) {
	const n, mem, block = 20000, 128, 16
	const grown = 1 << 17
	in := seq.Uniform(n, 78)
	base := runSort(t, Config{Mem: mem, Block: block, K: 1, Procs: 1}, in)
	if f := base.FanIn; mergeWriteRecs(grown/(f+1), block) <= stageRecs(block) {
		t.Fatalf("grown share %d does not exceed a stage of %d records", grown/(f+1), stageRecs(block))
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			l := newTestLease(grown)
			rep := runSort(t, Config{Mem: mem, Block: block, K: 1, Procs: procs, Lease: l}, in)
			if l.calls.Load() == 0 {
				t.Fatal("engine never consulted the lease")
			}
			if rep.Total.Writes != base.Total.Writes || rep.Total.Writes != rep.PlanWrites {
				t.Errorf("write ledger moved under a grown lease: measured %d, plan %d, fixed-budget run %d",
					rep.Total.Writes, rep.PlanWrites, base.Total.Writes)
			}
		})
	}
}

// TestLeaseNonPositiveGrantKeepsBudget pins the "keep the admission
// budget" escape hatch: a lease reporting 0 must behave exactly like no
// lease at all.
func TestLeaseNonPositiveGrantKeepsBudget(t *testing.T) {
	in := seq.Uniform(5000, 5)
	l := newTestLease(0)
	rep := runSort(t, Config{Mem: 128, Block: 16, K: 2, Lease: l}, in)
	if rep.Total.Writes != rep.PlanWrites {
		t.Fatalf("zero-grant lease changed the ledger: %d vs plan %d", rep.Total.Writes, rep.PlanWrites)
	}
}

// cancelSort runs a sort expecting ErrCanceled and asserts the spill
// directory is empty afterwards — a revoked job must leave nothing
// behind.
func cancelSort(t *testing.T, cfg Config, in []seq.Record) {
	t.Helper()
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	if err := WriteRecordsFile(inPath, in); err != nil {
		t.Fatal(err)
	}
	cfg.TmpDir = filepath.Join(dir, "spill")
	if err := os.Mkdir(cfg.TmpDir, 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := Sort(cfg, inPath, filepath.Join(dir, "out.bin"))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Sort returned %v, want ErrCanceled", err)
	}
	left, err := os.ReadDir(cfg.TmpDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("canceled sort left %d spill files (%v)", len(left), left[0].Name())
	}
}

// TestCancelBeforeRun revokes the lease before the engine starts: the
// very first phase must abort.
func TestCancelBeforeRun(t *testing.T) {
	in := seq.Uniform(5000, 3)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			l := newTestLease(128)
			l.Cancel()
			cancelSort(t, Config{Mem: 128, Block: 16, K: 1, Procs: procs, Lease: l}, in)
		})
	}
}

// TestCancelMidMerge revokes the lease at the first merge-level
// boundary — deterministically mid-run, with all runs formed and spill
// files on disk — and asserts the abort path drains in-flight IO and
// removes them, at both engine widths.
func TestCancelMidMerge(t *testing.T) {
	in := seq.Uniform(20000, 9)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			l := newTestLease(128)
			l.onMem = func(call int64, l *testLease) { l.Cancel() }
			cancelSort(t, Config{Mem: 128, Block: 16, K: 1, Procs: procs, Lease: l}, in)
		})
	}
}

// TestSharedIOQueueAndPoolAcrossEngines runs several engines
// concurrently on one shared IOQueue and split pools of one parent —
// the serve broker's exact wiring — and asserts outputs, ledgers, and
// spill cleanup all hold, with the shared queue still usable after
// each engine exits.
func TestSharedIOQueueAndPoolAcrossEngines(t *testing.T) {
	q := NewIOQueue(4)
	defer q.Close()
	parent := rt.NewPool(4)
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	if err := os.Mkdir(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	const jobs = 4
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		go func(i int) {
			in := seq.Uniform(8000+i*123, uint64(i+1))
			inPath := filepath.Join(dir, fmt.Sprintf("in%d.bin", i))
			outPath := filepath.Join(dir, fmt.Sprintf("out%d.bin", i))
			if err := WriteRecordsFile(inPath, in); err != nil {
				errs <- err
				return
			}
			rep, err := Sort(Config{
				Mem: 128, Block: 16, K: 1, TmpDir: spill,
				Pool: parent.Split(2), IOQ: q,
			}, inPath, outPath)
			if err != nil {
				errs <- err
				return
			}
			if rep.Total.Writes != rep.PlanWrites {
				errs <- fmt.Errorf("job %d: measured %d writes, plan %d", i, rep.Total.Writes, rep.PlanWrites)
				return
			}
			got, err := ReadRecordsFile(outPath)
			if err != nil {
				errs <- err
				return
			}
			want := slices.Clone(in)
			slices.SortFunc(want, seq.TotalCompare)
			if !slices.Equal(got, want) {
				errs <- fmt.Errorf("job %d: output diverges from reference", i)
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < jobs; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	left, err := os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("shared spill dir not cleaned: %d files remain", len(left))
	}
}
