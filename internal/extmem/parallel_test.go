package extmem

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asymsort/internal/seq"
)

// TestSortParallelMatchesSequential is the parallel engine's identity
// gate: for every configuration and every worker count, the engine
// must produce the byte-identical output file and the identical
// per-level block-write ledger as the one-worker engine (which the
// integration tests pin to the simulated AEM machine). Formation
// (LevelIO[0]) issues the same spans at any worker count, so its reads
// must match exactly too. Merge reads may only grow — the splitter
// probes and the refills straddling the per-run cuts add reads, never
// remove any.
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
		{20011, 256, 16, 4},    // more multi-pass leaves than workers, ragged last leaf
		{3000, 1 << 12, 64, 1}, // whole file fits one run: one worker, no merge
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
				if parRep.LevelIO[0] != seqRep.LevelIO[0] {
					t.Errorf("procs=%d formation ledger %+v, sequential %+v",
						procs, parRep.LevelIO[0], seqRep.LevelIO[0])
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
	// Exact duplicates: every splitter equals every record, so all cut
	// positions collapse and one worker inherits the whole merge — the
	// degenerate-extent path.
	t.Run("exactdup", func(t *testing.T) {
		in := make([]seq.Record, n)
		for i := range in {
			in[i] = seq.Record{Key: 7, Val: 7}
		}
		runSort(t, Config{Mem: mem, Block: block, K: 1, Procs: 4}, in)
	})
	// The same at k=2, where leaves above M records take two selection
	// passes of copies and the second skips exactly the copies the
	// first wrote.
	t.Run("exactdup-k2", func(t *testing.T) {
		in := make([]seq.Record, n)
		for i := range in {
			in[i] = seq.Record{Key: 7, Val: 7}
		}
		runSort(t, Config{Mem: mem, Block: block, K: 2, Procs: 4}, in)
	})
}

// TestSortErrorCleanup injects a device write failure mid-run and
// asserts the engine surfaces it and still leaves the spill directory
// empty — the error path must join every formation worker, merge
// worker, and in-flight async transfer before the cleanup defers run.
func TestSortErrorCleanup(t *testing.T) {
	boom := errors.New("injected device failure")
	// n=8192, M=64, B=16, k=1 builds a 3-level tree: spill parity 0
	// holds formation output, parity 1 the first merge level, so
	// failing on a "spill1" path hits the engine strictly mid-merge.
	// At k=2 the same input forms 64 two-pass leaves (128 formation
	// writes) under two merge levels.
	cases := []struct {
		name   string
		k      int
		procs  int
		target string // path substring that should fail
		nth    int64  // which matching write fails (1-based)
	}{
		{"formation-first-write-seq", 1, 1, "spill0", 1},
		{"formation-first-write-par", 1, 4, "spill0", 1},
		{"formation-late-write-par", 1, 4, "spill0", 50},
		{"mid-merge-seq", 1, 1, "spill1", 3},
		{"mid-merge-par", 1, 4, "spill1", 3},
		// The root's first staged write to the output file.
		{"root-stage-write-seq", 1, 1, "out", 1},
		{"root-stage-write-par", 1, 4, "out", 1},
		// Multi-pass leaves on concurrent formation workers.
		{"multipass-first-write-par", 2, 4, "spill0", 1},
		{"multipass-late-write-par", 2, 4, "spill0", 100},
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
			_, err := Sort(Config{Mem: 64, Block: 16, K: tc.k, TmpDir: spill, Procs: tc.procs},
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

// TestFormationConcurrentFailures fails the first spill write of every
// formation worker, with the writes held at a barrier until all four
// workers have reached one, so the workers record their failures
// concurrently. Sort must return the injected error and leave the
// spill dir empty.
func TestFormationConcurrentFailures(t *testing.T) {
	const procs = 4
	boom := errors.New("injected device failure")
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	if err := os.Mkdir(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	inPath := filepath.Join(dir, "in.bin")
	if err := WriteRecordsFile(inPath, seq.Uniform(8192, 13)); err != nil {
		t.Fatal(err)
	}
	var arrived atomic.Int64
	all := make(chan struct{})
	testWriteErr = func(path string, off int) error {
		if !strings.Contains(filepath.Base(path), "spill0") {
			return nil
		}
		if arrived.Add(1) == procs {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(5 * time.Second): // fewer workers ran; the count check reports it
		}
		return boom
	}
	defer func() { testWriteErr = nil }()
	_, err := Sort(Config{Mem: 64, Block: 16, K: 1, TmpDir: spill, Procs: procs},
		inPath, filepath.Join(dir, "out.bin"))
	if !errors.Is(err, boom) {
		t.Fatalf("Sort returned %v, want the injected failure", err)
	}
	if n := arrived.Load(); n != procs {
		t.Errorf("%d formation writes failed, want one per worker (%d)", n, procs)
	}
	if left, err := os.ReadDir(spill); err != nil || len(left) != 0 {
		t.Fatalf("spill dir not cleaned after error: %d entries (%v)", len(left), err)
	}
}

// TestMappedReadMatchesPread drives runReader over a mapped and an
// unmapped BlockFile of the same records with the same buffer capacity:
// same records, same charged IO ledger. Spans past the mapping (the file
// grew after mapRead) and a file that was empty when mapped read through
// pread with the same result, and a mapped read of a truncated file is
// an error, not a crash.
func TestMappedReadMatchesPread(t *testing.T) {
	recs := seq.Uniform(1100, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "r.bin")
	if err := WriteRecordsFile(path, recs[:1000]); err != nil {
		t.Fatal(err)
	}
	track := func(bf *BlockFile, err error) *BlockFile {
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bf.Close() })
		return bf
	}
	// check drains [lo, hi) of both files and also checks the span shape:
	// every span but the last fills the reader's buffer.
	check := func(mbf, pbf *BlockFile, lo, hi, bufRecs int) {
		drain := func(bf *BlockFile) []seq.Record {
			r := newRunReader(bf, lo, hi, make([]seq.Record, bufRecs))
			var out []seq.Record
			for {
				sp, err := r.span()
				if err != nil {
					t.Fatal(err)
				}
				if len(sp) == 0 {
					return out
				}
				if len(sp) > bufRecs || (len(sp) < bufRecs && len(out)+len(sp) != hi-lo) {
					t.Fatalf("buf=%d span=[%d,%d): a span of %d records before the run's end", bufRecs, lo, hi, len(sp))
				}
				out = append(out, sp...)
			}
		}
		got, want := drain(mbf), drain(pbf)
		if !slices.Equal(want, recs[lo:hi]) || !slices.Equal(got, want) {
			t.Fatalf("buf=%d span=[%d,%d): mapped and pread records differ from the file", bufRecs, lo, hi)
		}
		if g, w := mbf.stats.Snapshot(), pbf.stats.Snapshot(); g != w {
			t.Fatalf("buf=%d span=[%d,%d): mapped ledger %+v, pread ledger %+v", bufRecs, lo, hi, g, w)
		}
	}
	for _, bufRecs := range []int{1, 3, 16, 64, 1000, 2000} {
		for _, span := range [][2]int{{0, 1000}, {17, 923}, {500, 500}} {
			mbf := track(OpenBlockFile(path, 16, &IOStats{}))
			if mbf.mapRead(); mbf.mm == nil && runtime.GOOS == "linux" {
				t.Fatal("mapRead left a 1000-record file unmapped")
			}
			check(mbf, track(OpenBlockFile(path, 16, &IOStats{})), span[0], span[1], bufRecs)
		}
	}
	for _, pre := range []int{1000, 0} {
		mbf := track(CreateBlockFile(filepath.Join(dir, "m.bin"), 16, &IOStats{}))
		pbf := track(CreateBlockFile(filepath.Join(dir, "p.bin"), 16, &IOStats{}))
		for _, bf := range []*BlockFile{mbf, pbf} {
			if err := bf.WriteAt(0, recs[:pre]); err != nil {
				t.Fatal(err)
			}
		}
		if mbf.mapRead(); pre == 0 && mbf.mm != nil {
			t.Fatal("mapRead mapped an empty file")
		}
		for _, bf := range []*BlockFile{mbf, pbf} {
			if err := bf.WriteAt(pre, recs[pre:]); err != nil {
				t.Fatal(err)
			}
		}
		check(mbf, pbf, 0, 1100, 64)
		check(mbf, pbf, 990, 1100, 64)
		if err := mbf.unmap(); err != nil {
			t.Fatalf("unmap of a file that grew: %v", err)
		}
	}
	mbf := track(OpenBlockFile(path, 16, nil))
	mbf.mapRead()
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if err := mbf.ReadAt(500, make([]seq.Record, 10)); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("read of a truncated mapped file returned %v, want an error naming %s", err, path)
	}
}

// TestRunWriterMatchesReference drives the merge writer and a
// reference that issues every flush as one WriteAt over the same
// record stream. Buffer sizes are the ones the merges use
// (mergeWriteRecs): a one-block and a seven-block share, both raised to
// a stage, and a share larger than a stage. Beside them run raw 1-, 2-
// and 7-block buffers, the sizes mergeWriteRecs returns once B ≥
// formChunk, over a 777-record stream that flushes dozens of times;
// B = formChunk covers that regime through the helper itself. Block
// sizes include 100, which does not divide formChunk; bases are
// block-aligned but not stage-aligned; lengths end mid-block. Both
// must issue the same WriteAt offsets and leave byte-identical files
// of equal Len(), and the writer must charge Σ⌈flush/B⌉ block writes.
func TestRunWriterMatchesReference(t *testing.T) {
	dir := t.TempDir()
	offs := map[string][]int{} // WriteAt offsets by file, in issue order
	testWriteErr = func(path string, off int) error {
		offs[path] = append(offs[path], off)
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
					// write writes recs into a fresh file, through the
					// writer or as the reference's one WriteAt per flush,
					// and returns the file's path, Len() and charged block
					// writes.
					write := func(kind string) (string, int, uint64) {
						var stats IOStats
						path := filepath.Join(dir, fmt.Sprintf("%s-%d-%d-%d-%d.bin", kind, B, wLen, base, n))
						bf, err := CreateBlockFile(path, B, &stats)
						if err != nil {
							t.Fatal(err)
						}
						defer bf.Close()
						if kind == "ref" {
							for off := 0; off < n; off += wLen {
								if err := bf.WriteAt(base+off, recs[off:min(off+wLen, n)]); err != nil {
									t.Fatal(err)
								}
							}
							return path, bf.Len(), stats.Snapshot().Writes
						}
						w := NewRunWriter(bf, base, make([]seq.Record, 0, wLen))
						for _, r := range recs {
							if err := w.Add(r); err != nil {
								t.Fatal(err)
							}
						}
						if err := w.Flush(); err != nil {
							t.Fatal(err)
						}
						return path, bf.Len(), stats.Snapshot().Writes
					}
					refPath, refLen, refW := write("ref")
					path, gotLen, w := write("writer")
					if w != flushBlocks || refW != flushBlocks {
						t.Fatalf("%s: writer charged %d writes, reference %d, want Σ⌈flush/B⌉ = %d",
							name, w, refW, flushBlocks)
					}
					if gotLen != refLen || gotLen != base+n {
						t.Fatalf("%s: writer Len() %d, reference %d, want %d", name, gotLen, refLen, base+n)
					}
					want, err := os.ReadFile(refPath)
					if err != nil {
						t.Fatal(err)
					}
					got, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: writer file differs from the reference", name)
					}
					if gotOffs, wantOffs := offs[path], offs[refPath]; !slices.Equal(gotOffs, wantOffs) {
						t.Fatalf("%s: writer issued %d WriteAts starting %v, reference %d starting %v", name,
							len(gotOffs), gotOffs[:min(4, len(gotOffs))], len(wantOffs), wantOffs[:min(4, len(wantOffs))])
					}
				}
			}
		}
	}
}

// BenchmarkMergeWriter writes 16 MiB through the merge writer at
// ext-classic-p1's shape — B = 64 and a one-block M/(f+1) share, sized
// by mergeWriteRecs as the merges size it — beside the ceiling: a raw
// os.File.WriteAt loop of stage-sized transfers in the same directory. Every iteration overwrites the same
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
			w := NewRunWriter(bf, 0, make([]seq.Record, 0, wLen))
			for _, r := range recs {
				if err := w.Add(r); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
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
		stage := seq.Encoded(recs[:wLen])
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

// BenchmarkMergeRefill streams a 16 MiB run file through runReader
// refills at B = 64 with the per-run shares c = M/(f+1) of
// ext-writeeff-p2 (15 records) and ext-classic-p1 (63), once copying
// out of a mapping of the file and once through pread, beside the
// ceiling: a plain copy of the same bytes in c-record pieces. The
// mapped-metered rows feed an ω meter, as every served and benchmark
// sort does, so they include the sampled clock reads and the meter
// updates. The file stays in the page cache, so the rows compare refill
// paths, not the device.
func BenchmarkMergeRefill(b *testing.B) {
	const block, total = 64, 16 << 20
	n := total / RecordBytes
	path := filepath.Join(b.TempDir(), "run.bin")
	if err := WriteRecordsFile(path, seq.Uniform(n, 4)); err != nil {
		b.Fatal(err)
	}
	for _, c := range []int{15, 63} {
		for _, mode := range []string{"mapped", "mapped-metered", "pread"} {
			b.Run(fmt.Sprintf("c=%d/%s", c, mode), func(b *testing.B) {
				stats := &IOStats{}
				if mode == "mapped-metered" {
					stats.meter = NewOmegaMeter("")
				}
				bf, err := OpenBlockFile(path, block, stats)
				if err != nil {
					b.Fatal(err)
				}
				defer bf.Close()
				if mode != "pread" {
					bf.mapRead()
				}
				buf := make([]seq.Record, c)
				b.SetBytes(total)
				for b.Loop() {
					r := newRunReader(bf, 0, n, buf)
					for {
						sp, err := r.span()
						if err != nil {
							b.Fatal(err)
						}
						if len(sp) == 0 {
							break
						}
					}
				}
			})
		}
		b.Run(fmt.Sprintf("c=%d/copy-ceiling", c), func(b *testing.B) {
			src, err := os.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]byte, c*RecordBytes)
			b.SetBytes(total)
			for b.Loop() {
				for off := 0; off < len(src); off += len(dst) {
					copy(dst, src[off:])
				}
			}
		})
	}
}
