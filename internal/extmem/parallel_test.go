package extmem

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"asymsort/internal/seq"
)

// TestSortParallelMatchesSequential is the parallel engine's identity
// gate: for every configuration and every worker count, the engine
// must produce the byte-identical output file and the identical
// per-level block-write ledger as the one-worker engine (which the
// integration tests pin to the simulated AEM machine). Reads may only
// grow — the splitter probes and the narrower per-worker prefetch
// buffers add reads, never remove any.
func TestSortParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		n, mem, block, k int
	}{
		{100, 64, 16, 1},       // single merge, tiny
		{1040, 128, 16, 1},     // ragged-depth tree
		{4097, 64, 16, 1},      // deep tree + tail record
		{5000, 128, 16, 2},     // multi-pass selection leaves
		{12345, 256, 16, 3},    // ragged everything, odd k
		{50000, 512, 64, 4},    // wide fan-in
		{3000, 1 << 12, 64, 1}, // whole file fits one run: pipeline, no merge
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n=%d/M=%d/B=%d/k=%d", tc.n, tc.mem, tc.block, tc.k), func(t *testing.T) {
			in := seq.Uniform(tc.n, uint64(tc.n+tc.k))
			dir := t.TempDir()
			inPath := filepath.Join(dir, "in.bin")
			if err := WriteRecordsFile(inPath, in); err != nil {
				t.Fatal(err)
			}
			seqPath := filepath.Join(dir, "seq.bin")
			seqRep, err := Sort(Config{Mem: tc.mem, Block: tc.block, K: tc.k, TmpDir: dir, Procs: 1},
				inPath, seqPath)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ReadRecordsFile(seqPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{2, 3, 4} {
				parPath := filepath.Join(dir, fmt.Sprintf("par%d.bin", procs))
				parRep, err := Sort(Config{Mem: tc.mem, Block: tc.block, K: tc.k, TmpDir: dir, Procs: procs},
					inPath, parPath)
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if parRep.Procs != procs {
					t.Errorf("procs=%d: report says %d workers", procs, parRep.Procs)
				}
				got, err := ReadRecordsFile(parPath)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("procs=%d: %d records, want %d", procs, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("procs=%d: outputs diverge at record %d: %+v vs %+v",
							procs, i, got[i], want[i])
					}
				}
				if parRep.Total.Writes != seqRep.Total.Writes {
					t.Errorf("procs=%d: %d block writes, sequential %d",
						procs, parRep.Total.Writes, seqRep.Total.Writes)
				}
				for lvl := range seqRep.LevelIO {
					if parRep.LevelIO[lvl].Writes != seqRep.LevelIO[lvl].Writes {
						t.Errorf("procs=%d level %d: %d block writes, sequential %d",
							procs, lvl, parRep.LevelIO[lvl].Writes, seqRep.LevelIO[lvl].Writes)
					}
				}
				if parRep.Total.Reads < seqRep.Total.Reads {
					t.Errorf("procs=%d: %d block reads, fewer than sequential %d",
						procs, parRep.Total.Reads, seqRep.Total.Reads)
				}
			}
		})
	}
}

// TestSortParallelWorkloadShapes runs the parallel engine over the
// hostile key distributions: duplicate-heavy and all-equal keys stress
// the splitter cuts (many equal records must never straddle a worker).
func TestSortParallelWorkloadShapes(t *testing.T) {
	const n, mem, block = 6000, 256, 32
	shapes := map[string][]seq.Record{
		"sorted":   seq.Sorted(n),
		"reversed": seq.Reversed(n),
		"fewkeys":  seq.FewDistinct(n, 7, 5),
		"allequal": seq.FewDistinct(n, 1, 5),
	}
	for name, in := range shapes {
		t.Run(name, func(t *testing.T) {
			runSort(t, Config{Mem: mem, Block: block, K: 2, Procs: 4}, in)
		})
	}
	// Exact duplicates (legal at k=1, where leaves fit the budget and
	// no selection watermark exists): every splitter equals every
	// record, so all cut positions collapse and one worker inherits the
	// whole merge — the degenerate-extent path.
	t.Run("exactdup", func(t *testing.T) {
		in := make([]seq.Record, n)
		for i := range in {
			in[i] = seq.Record{Key: 7, Val: 7}
		}
		runSort(t, Config{Mem: mem, Block: block, K: 1, Procs: 4}, in)
	})
}

// TestSortErrorCleanup injects a device write failure mid-run and
// asserts the engine surfaces it and still leaves the spill directory
// empty — the error path must join every pipeline stage, merge worker,
// and in-flight async transfer before the cleanup defers run.
func TestSortErrorCleanup(t *testing.T) {
	boom := errors.New("injected device failure")
	// n=8192, M=64, B=16, k=1 builds a 3-level tree: spill parity 0
	// holds formation output, parity 1 the first merge level, so
	// failing on a "spill1" path hits the engine strictly mid-merge.
	cases := []struct {
		name   string
		procs  int
		target string // path substring that should fail
		nth    int64  // which matching write fails (1-based)
	}{
		{"formation-first-write-seq", 1, "spill0", 1},
		{"formation-first-write-par", 4, "spill0", 1},
		{"formation-late-write-par", 4, "spill0", 50},
		{"mid-merge-seq", 1, "spill1", 3},
		{"mid-merge-par", 4, "spill1", 3},
		// The root's first staged write to the output file.
		{"root-stage-write-seq", 1, "out", 1},
		{"root-stage-write-par", 4, "out", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := seq.Uniform(8192, 7)
			dir := t.TempDir()
			spill := filepath.Join(dir, "spill")
			if err := os.Mkdir(spill, 0o755); err != nil {
				t.Fatal(err)
			}
			inPath := filepath.Join(dir, "in.bin")
			if err := WriteRecordsFile(inPath, in); err != nil {
				t.Fatal(err)
			}
			var hits atomic.Int64
			testWriteErr = func(path string, off int) error {
				if strings.Contains(filepath.Base(path), tc.target) && hits.Add(1) == tc.nth {
					return boom
				}
				return nil
			}
			defer func() { testWriteErr = nil }()
			_, err := Sort(Config{Mem: 64, Block: 16, K: 1, TmpDir: spill, Procs: tc.procs},
				inPath, filepath.Join(dir, "out.bin"))
			if !errors.Is(err, boom) {
				t.Fatalf("Sort returned %v, want the injected failure", err)
			}
			left, err := os.ReadDir(spill)
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				names := make([]string, len(left))
				for i, e := range left {
					names[i] = e.Name()
				}
				t.Fatalf("spill dir not cleaned after error: %v", names)
			}
		})
	}
}

// TestPrefetchReaderMatchesRunReader drives the async read-ahead facade
// and the synchronous reader over the same region with the same buffer
// capacity: same records, same charged read ledger.
func TestPrefetchReaderMatchesRunReader(t *testing.T) {
	recs := seq.Uniform(1000, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "r.bin")
	if err := WriteRecordsFile(path, recs); err != nil {
		t.Fatal(err)
	}
	q := &ioSession{q: NewIOQueue(2)}
	defer q.q.Close()
	for _, bufRecs := range []int{1, 3, 16, 64, 1000, 2000} {
		for _, span := range [][2]int{{0, 1000}, {17, 923}, {500, 500}} {
			var sStats, pStats IOStats
			sbf, err := OpenBlockFile(path, 16, &sStats)
			if err != nil {
				t.Fatal(err)
			}
			pbf, err := OpenBlockFile(path, 16, &pStats)
			if err != nil {
				t.Fatal(err)
			}
			// drain also checks the span shape: every span but the last
			// fills the reader's buffer.
			drain := func(s recStream) []seq.Record {
				var out []seq.Record
				for {
					sp, err := s.span()
					if err != nil {
						t.Fatal(err)
					}
					if len(sp) == 0 {
						return out
					}
					if len(sp) > bufRecs || (len(sp) < bufRecs && len(out)+len(sp) != span[1]-span[0]) {
						t.Fatalf("buf=%d span=%v: a span of %d records before the run's end", bufRecs, span, len(sp))
					}
					out = append(out, sp...)
				}
			}
			want := drain(newRunReader(sbf, span[0], span[1], make([]seq.Record, bufRecs)))
			got := drain(newPrefetchReader(pbf, span[0], span[1], q, bufRecs))
			if len(got) != len(want) {
				t.Fatalf("buf=%d span=%v: %d records, want %d", bufRecs, span, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("buf=%d span=%v: record %d differs", bufRecs, span, i)
				}
			}
			if g, w := pStats.Snapshot(), sStats.Snapshot(); g != w {
				t.Fatalf("buf=%d span=%v: prefetch ledger %+v, sync ledger %+v", bufRecs, span, g, w)
			}
			sbf.Close()
			pbf.Close()
		}
	}
}

// TestAsyncWriterMatchesRunWriter drives write-behind, the synchronous
// writer and a reference that issues every flush as one WriteAt over
// the same record stream. Buffer sizes are the ones the merges use
// (mergeWriteRecs): a one-block and a seven-block share, both raised to
// a stage, and a share larger than a stage. Beside them run raw 1-, 2-
// and 7-block buffers, the sizes mergeWriteRecs returns once B ≥
// formChunk, over a 777-record stream that alternates the write-behind
// double buffer dozens of times; B = formChunk covers that regime
// through the helper itself. Block sizes include 100, which does not
// divide formChunk; bases are block-aligned but not stage-aligned;
// lengths end mid-block. All three must issue the same WriteAt offsets
// and leave byte-identical files of equal Len(), and both writers must
// charge Σ⌈flush/B⌉ block writes.
func TestAsyncWriterMatchesRunWriter(t *testing.T) {
	dir := t.TempDir()
	q := &ioSession{q: NewIOQueue(2)}
	defer q.q.Close()
	var mu sync.Mutex
	offs := map[string][]int{} // WriteAt offsets by file, in issue order
	testWriteErr = func(path string, off int) error {
		mu.Lock()
		offs[path] = append(offs[path], off)
		mu.Unlock()
		return nil
	}
	defer func() { testWriteErr = nil }()
	for _, B := range []int{16, 48, 100, formChunk} {
		stage := stageRecs(B)
		var wLens []int
		for _, share := range []int{B, 7 * B, stage + 3*B + 1} {
			wLens = append(wLens, mergeWriteRecs(share, B))
		}
		if B < formChunk {
			wLens = append(wLens, B, 2*B, 7*B)
		} else {
			wLens = wLens[:1] // a one-block share stays one block
		}
		slices.Sort(wLens)
		for _, wLen := range slices.Compact(wLens) {
			for _, base := range []int{0, 3 * B, stage + 5*B} {
				for _, n := range []int{B/2 + 1, 777, 2*wLen + 5*B + B/3} {
					name := fmt.Sprintf("B=%d/wLen=%d/base=%d/n=%d", B, wLen, base, n)
					recs := seq.Uniform(n, uint64(B*n+base))
					var flushBlocks uint64
					for off := 0; off < n; off += wLen {
						flushBlocks += uint64((min(wLen, n-off) + B - 1) / B)
					}
					// write runs one writer kind into a fresh file and returns
					// the file's path, Len() and charged block writes.
					write := func(kind string) (string, int, uint64) {
						var stats IOStats
						path := filepath.Join(dir, fmt.Sprintf("%s-%d-%d-%d-%d.bin", kind, B, wLen, base, n))
						bf, err := CreateBlockFile(path, B, &stats)
						if err != nil {
							t.Fatal(err)
						}
						defer bf.Close()
						var w interface {
							add(seq.Record) error
							written() int
						}
						var finish func() error
						switch kind {
						case "ref":
							for off := 0; off < n; off += wLen {
								if err := bf.WriteAt(base+off, recs[off:min(off+wLen, n)]); err != nil {
									t.Fatal(err)
								}
							}
							return path, bf.Len(), stats.Snapshot().Writes
						case "sync":
							rw := newRunWriter(bf, base, make([]seq.Record, 0, wLen))
							w, finish = rw, rw.flush
						case "async":
							aw := newAsyncWriter(bf, base, q, wLen)
							w, finish = aw, aw.close
						}
						for _, r := range recs {
							if err := w.add(r); err != nil {
								t.Fatal(err)
							}
						}
						if err := finish(); err != nil {
							t.Fatal(err)
						}
						if w.written() != n {
							t.Fatalf("%s: %s writer wrote %d records, want %d", name, kind, w.written(), n)
						}
						return path, bf.Len(), stats.Snapshot().Writes
					}
					refPath, refLen, refW := write("ref")
					want, err := os.ReadFile(refPath)
					if err != nil {
						t.Fatal(err)
					}
					for _, kind := range []string{"sync", "async"} {
						path, gotLen, w := write(kind)
						if w != flushBlocks || refW != flushBlocks {
							t.Fatalf("%s: %s charged %d writes, reference %d, want Σ⌈flush/B⌉ = %d",
								name, kind, w, refW, flushBlocks)
						}
						if gotLen != refLen || gotLen != base+n {
							t.Fatalf("%s: %s Len() %d, reference %d, want %d", name, kind, gotLen, refLen, base+n)
						}
						got, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s: %s file differs from the reference", name, kind)
						}
						mu.Lock()
						gotOffs, wantOffs := offs[path], offs[refPath]
						mu.Unlock()
						if !slices.Equal(gotOffs, wantOffs) {
							t.Fatalf("%s: %s issued %d WriteAts starting %v, reference %d starting %v", name, kind,
								len(gotOffs), gotOffs[:min(4, len(gotOffs))], len(wantOffs), wantOffs[:min(4, len(wantOffs))])
						}
					}
				}
			}
		}
	}
}

// BenchmarkMergeWriter writes 16 MiB through the synchronous and the
// write-behind merge writer at ext-classic-p1's shape — B = 64 and a
// one-block M/(f+1) share, sized by mergeWriteRecs as the merges size
// it — beside the ceiling: a raw os.File.WriteAt loop of stage-sized
// transfers in the same directory. Every iteration overwrites the same
// file, so the numbers compare writer overhead, not block allocation.
func BenchmarkMergeWriter(b *testing.B) {
	const block, total = 64, 16 << 20
	recs := seq.Uniform(total/RecordBytes, 3)
	wLen := mergeWriteRecs(block, block)
	dir := b.TempDir()
	open := func(b *testing.B, name string) *BlockFile {
		bf, err := CreateBlockFile(filepath.Join(dir, name), block, &IOStats{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { bf.Close() })
		return bf
	}
	b.Run("sync", func(b *testing.B) {
		bf := open(b, "sync.bin")
		b.SetBytes(total)
		for b.Loop() {
			w := newRunWriter(bf, 0, make([]seq.Record, 0, wLen))
			for _, r := range recs {
				if err := w.add(r); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.flush(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("async", func(b *testing.B) {
		bf := open(b, "async.bin")
		q := &ioSession{q: NewIOQueue(2)}
		defer q.q.Close()
		b.SetBytes(total)
		for b.Loop() {
			w := newAsyncWriter(bf, 0, q, wLen)
			for _, r := range recs {
				if err := w.add(r); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pwrite-ceiling", func(b *testing.B) {
		f, err := os.Create(filepath.Join(dir, "raw.bin"))
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		stage := make([]byte, wLen*RecordBytes)
		encodeRecs(stage, recs[:wLen])
		b.SetBytes(total)
		for b.Loop() {
			for off := 0; off < total; off += len(stage) {
				if _, err := f.WriteAt(stage[:min(len(stage), total-off)], int64(off)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
