package extmem

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"asymsort/internal/seq"
)

// TestBlockFileConcurrentStress is the -race stress test of the
// concurrency contract BlockFile documents: many goroutines
// pread/pwrite disjoint extents of one file — straight from and into
// their own record buffers, through the atomic length watermark and
// one shared IOStats ledger — while more goroutines poll Len. Extents
// and spans are deliberately block-misaligned, so transfers of many
// sizes start and end mid-block. Afterwards the file contents and the
// charged ledger must both equal the exact sums of what each worker
// did.
func TestBlockFileConcurrentStress(t *testing.T) {
	const (
		B       = 16
		workers = 8
		extent  = 997 // not a block multiple: extents straddle blocks
		rounds  = 12
	)
	var stats IOStats
	bf, err := CreateBlockFile(filepath.Join(t.TempDir(), "stress.bin"), B, &stats)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()

	var (
		wg        sync.WaitGroup // the extent writers
		pollers   sync.WaitGroup // the Len pollers, stopped after the writers
		stop      = make(chan struct{})
		wantReads uint64
		wantWrite uint64
		mu        sync.Mutex
	)
	// Len pollers: the atomic watermark must be readable mid-write.
	// Gosched keeps the poll loops from starving the writers on small
	// GOMAXPROCS.
	for i := 0; i < 2; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			prev := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := bf.Len(); n < prev {
					t.Errorf("Len went backwards: %d after %d", n, prev)
					return
				} else {
					prev = n
				}
				runtime.Gosched()
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w * extent
			buf := make([]seq.Record, extent)
			var myReads, myWrites uint64
			for r := 0; r < rounds; r++ {
				for i := range buf {
					buf[i] = seq.Record{Key: uint64(r), Val: uint64(lo + i)}
				}
				if err := bf.WriteAt(lo, buf); err != nil {
					t.Error(err)
					return
				}
				myWrites += bf.blockSpan(lo, extent)
				// Read back a misaligned sub-span plus the whole extent.
				sub := buf[:1+(w*131)%extent]
				if err := bf.ReadAt(lo+(extent-len(sub)), sub); err != nil {
					t.Error(err)
					return
				}
				myReads += bf.blockSpan(lo+(extent-len(sub)), len(sub))
				if err := bf.ReadAt(lo, buf); err != nil {
					t.Error(err)
					return
				}
				myReads += bf.blockSpan(lo, extent)
				for i, rec := range buf {
					if rec != (seq.Record{Key: uint64(r), Val: uint64(lo + i)}) {
						t.Errorf("worker %d round %d: record %d corrupted: %+v", w, r, i, rec)
						return
					}
				}
			}
			mu.Lock()
			wantReads += myReads
			wantWrite += myWrites
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	close(stop)
	pollers.Wait()

	if n := bf.Len(); n != workers*extent {
		t.Fatalf("final length %d, want %d", n, workers*extent)
	}
	final := make([]seq.Record, workers*extent)
	if err := bf.ReadAt(0, final); err != nil {
		t.Fatal(err)
	}
	for i, rec := range final {
		if rec != (seq.Record{Key: rounds - 1, Val: uint64(i)}) {
			t.Fatalf("record %d: got %+v after all rounds", i, rec)
		}
	}
	got := stats.Snapshot()
	wantReads += bf.blockSpan(0, workers*extent) // the final verification read
	if got.Reads != wantReads || got.Writes != wantWrite {
		t.Fatalf("ledger %d reads / %d writes, exact sum of issued spans is %d / %d",
			got.Reads, got.Writes, wantReads, wantWrite)
	}
}

// TestScratchPoolChurnAcrossFiles round-trips a whole file from each
// of six goroutines at once, every file a different size above 4 096
// records: WriteRecordsFile writes it (os.WriteFile of the records'
// encoded bytes) and ReadRecordsFile reads it back through
// BlockFile.ReadAt, one pread straight into the goroutine's records, so
// -race sees concurrent reads across files. Concurrent BlockFile.WriteAt
// is TestBlockFileConcurrentStress's.
func TestScratchPoolChurnAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 4096 + 33 + g*charsPerG
			recs := seq.Uniform(n, uint64(g+1))
			path := filepath.Join(dir, fmt.Sprintf("churn%d.bin", g))
			if err := WriteRecordsFile(path, recs); err != nil {
				t.Error(err)
				return
			}
			got, err := ReadRecordsFile(path)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Errorf("goroutine %d: record %d corrupted in a concurrent round trip", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

const charsPerG = 911 // co-prime offset so every goroutine's size differs
