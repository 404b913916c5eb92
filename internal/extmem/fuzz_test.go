package extmem

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"asymsort/internal/rt"
	"asymsort/internal/seq"
)

// fuzzWorkload generates n records of the given shape. The first five
// shapes produce unique (Key, Val) pairs (their generators embed the
// index in the payload); the sixth draws every record from a few exact
// pairs, so copies straddle the selection passes' boundaries.
func fuzzWorkload(shape, n int, seed uint64) []seq.Record {
	switch shape % 6 {
	case 1:
		return seq.Sorted(n)
	case 2:
		return seq.Reversed(n)
	case 3:
		return seq.FewDistinct(n, 7, seed) // duplicate-key-heavy
	case 4:
		return seq.FewDistinct(n, 1, seed) // all keys equal
	case 5:
		return repeatedPairs(n, 5, 1, seed)
	default:
		return seq.Uniform(n, seed)
	}
}

// repeatedPairs returns n seeded records of which every every-th is
// one of pairs exact (Key, Val) pairs spread over the key space; the
// others are distinct.
func repeatedPairs(n, pairs, every int, seed uint64) []seq.Record {
	out := seq.Uniform(n, seed)
	for i := 0; i < n; i += every {
		out[i] = seq.Record{Key: out[i].Key % uint64(pairs) << 60, Val: 1}
	}
	return out
}

// FuzzExtSort is the differential fuzz layer over the whole engine:
// a random (n, M, B, k, P, key-shape) configuration drives extmem.Sort
// and the result is compared against two independent oracles — the
// in-memory slices.SortFunc reference for the output records, and the
// simulated AEM machine's write ledger (via the shared merge-tree
// plan, which internal/integration pins to the aemsort simulator) for
// the per-level block-write counts. The spill directory must come back
// empty on every configuration.
//
// Seed corpus: the shapes of internal/integration/extmem_test.go —
// single-run, one-merge, the ragged-depth tree, deep-classic,
// multi-pass k ∈ {2,3,4}, and the tail-record case — at both engine
// widths, plus multi-pass leaves of exact duplicates.
func FuzzExtSort(f *testing.F) {
	f.Add(uint16(100), uint16(256), uint8(16), uint8(1), uint8(1), uint8(0), uint64(100))
	f.Add(uint16(2048), uint16(256), uint8(16), uint8(1), uint8(4), uint8(0), uint64(2048))
	f.Add(uint16(1040), uint16(128), uint8(16), uint8(1), uint8(1), uint8(1), uint64(1040))
	f.Add(uint16(8192), uint16(64), uint8(16), uint8(1), uint8(4), uint8(2), uint64(8192))
	f.Add(uint16(5000), uint16(128), uint8(16), uint8(2), uint8(1), uint8(3), uint64(5000))
	f.Add(uint16(12345), uint16(256), uint8(16), uint8(3), uint8(4), uint8(4), uint64(12345))
	f.Add(uint16(4097), uint16(64), uint8(16), uint8(1), uint8(2), uint8(0), uint64(4097))
	f.Add(uint16(0), uint16(64), uint8(16), uint8(1), uint8(1), uint8(0), uint64(1))
	// Exact duplicates over leaves of up to four selection passes.
	f.Add(uint16(16000), uint16(128), uint8(15), uint8(3), uint8(2), uint8(5), uint64(16000))

	f.Fuzz(func(t *testing.T, n, mem uint16, block, k, procs, shape uint8, seed uint64) {
		// Clamp the raw fuzz bytes into the engine's valid domain while
		// keeping every interesting boundary reachable: one-record
		// blocks, M = B, k up to 4 (multi-pass selection), P up to 4.
		B := int(block)%128 + 1
		M := int(mem)
		if M < B {
			M = B
		}
		K := int(k)%4 + 1
		P := int(procs)%4 + 1
		N := int(n) % 16384
		in := fuzzWorkload(int(shape), N, seed)

		dir := t.TempDir()
		inPath := filepath.Join(dir, "in.bin")
		outPath := filepath.Join(dir, "out.bin")
		spill := filepath.Join(dir, "spill")
		if err := WriteRecordsFile(inPath, in); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(spill, 0o755); err != nil {
			t.Fatal(err)
		}
		rep, err := Sort(Config{Mem: M, Block: B, K: K, Procs: P, TmpDir: spill}, inPath, outPath)
		if err != nil {
			t.Fatalf("Sort(n=%d M=%d B=%d k=%d P=%d shape=%d): %v", N, M, B, K, P, shape%6, err)
		}

		// Differential output check against the in-memory reference.
		got, err := ReadRecordsFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(in)
		slices.SortFunc(want, seq.TotalCompare)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d M=%d B=%d k=%d P=%d shape=%d: output diverges from slices.Sort reference",
				N, M, B, K, P, shape%6)
		}

		// Differential ledger check against the simulated AEM plan,
		// level for level (rep.Mem is the budget after block rounding —
		// the value the executed plan was built with).
		plan := NewPlan(N, rep.Mem, B, K, 0)
		planLevels := plan.LevelWrites()
		if len(rep.LevelIO) != len(planLevels) {
			t.Fatalf("engine reports %d levels, plan %d", len(rep.LevelIO), len(planLevels))
		}
		for lvl, w := range planLevels {
			if rep.LevelIO[lvl].Writes != w {
				t.Fatalf("level %d: engine wrote %d blocks, simulated plan predicts %d (n=%d M=%d B=%d k=%d P=%d)",
					lvl, rep.LevelIO[lvl].Writes, w, N, rep.Mem, B, K, P)
			}
		}
		if rep.Total.Writes != rep.PlanWrites || rep.PlanWrites != plan.TotalWrites() {
			t.Fatalf("total writes %d, report plan %d, recomputed plan %d",
				rep.Total.Writes, rep.PlanWrites, plan.TotalWrites())
		}

		left, err := os.ReadDir(spill)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("spill dir not cleaned: %d files remain", len(left))
		}
	})
}

// FuzzSelectSmallest is the differential fuzz of one selection pass.
// Byte b of data is the record {b/8, b%8}, so byte order is record
// order and exact duplicates are common. The records stream through
// selectSmallest in spans of the lengths spans cycles through, reusing
// one chunk as the engine does, under a budget of m records and a
// watermark with a copy count; the result must equal the sorted
// records past the watermark, cut to m. Chaining passes from the zero
// watermark, as formLeaf does, must then emit every record in order.
//
// The seeds reach a sorted input (no survivors once the candidates
// fill), a reversed one (every record survives, more than m per span),
// spans shorter than m, and an all-equal input under a watermark on
// its one record.
func FuzzSelectSmallest(f *testing.F) {
	ramp, rev := make([]byte, 256), make([]byte, 256)
	mixed, pairs, equal := make([]byte, 600), make([]byte, 400), make([]byte, 300)
	for i := range ramp {
		ramp[i], rev[i] = byte(i), byte(255-i)
	}
	for i, r := range seq.Uniform(len(mixed), 9) {
		mixed[i] = byte(r.Key)
		pairs[i%len(pairs)] = []byte{8, 9, 200}[r.Key%3]
	}
	for i := range equal {
		equal[i] = 42
	}
	f.Add(ramp, []byte{30}, uint16(39), byte(0), uint8(0))
	f.Add(rev, []byte{63}, uint16(9), byte(0), uint8(0))
	f.Add(mixed, []byte{5, 0, 12}, uint16(99), byte(77), uint8(2))
	f.Add(equal, []byte{49}, uint16(63), byte(42), uint8(100))
	f.Add(pairs, []byte{39, 2}, uint16(31), byte(9), uint8(5))

	f.Fuzz(func(t *testing.T, data, spans []byte, m uint16, wmByte byte, dups uint8) {
		rec := func(b byte) seq.Record { return seq.Record{Key: uint64(b / 8), Val: uint64(b % 8)} }
		in := make([]seq.Record, min(len(data), 4096))
		for i := range in {
			in[i] = rec(data[i])
		}
		M := int(m)%512 + 1
		chunk := make([]seq.Record, 256)
		pass := func(wm watermark) []seq.Record {
			pos, si := 0, 0
			next := func() ([]seq.Record, error) {
				l := len(chunk)
				if len(spans) > 0 {
					l = int(spans[si%len(spans)]) + 1
					si++
				}
				sp := chunk[:min(l, len(in)-pos)]
				pos += copy(sp, in[pos:])
				return sp, nil
			}
			got, err := selectSmallest(next, wm, make([]seq.Record, 0, M), rt.SeqSortRecords)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}

		sorted := slices.Clone(in)
		slices.SortFunc(sorted, seq.TotalCompare)
		wm := watermark{rec(wmByte), int(dups)}
		i, _ := slices.BinarySearchFunc(sorted, wm.rec, seq.TotalCompare)
		for skip := wm.dups; skip > 0 && i < len(sorted) && sorted[i] == wm.rec; skip-- {
			i++
		}
		want := sorted[i:min(len(sorted), i+M)]
		if got := pass(wm); !slices.Equal(got, want) {
			t.Fatalf("m=%d watermark %v×%d: got %v, want %v", M, wm.rec, wm.dups, got, want)
		}

		if len(in) > 64*M {
			return
		}
		var all []seq.Record
		for wm = (watermark{}); len(all) < len(in); {
			got := pass(wm)
			if len(got) == 0 {
				t.Fatalf("m=%d: pass after %d of %d records found nothing", M, len(all), len(in))
			}
			all = append(all, got...)
			wm = wm.advance(got)
		}
		if !slices.Equal(all, sorted) {
			t.Fatalf("m=%d: chained passes diverge from the sorted input", M)
		}
	})
}
