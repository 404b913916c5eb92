package extmem

import (
	"math"
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
	// One leaf of four passes over two read spans at M = 4 096, B = 64,
	// reversed and with exact duplicates: the first pass overflows the
	// empty candidates, and the later three keep under the counted cut.
	f.Add(uint16(16000), uint16(4096), uint8(63), uint8(3), uint8(1), uint8(2), uint64(16000))
	f.Add(uint16(15000), uint16(4096), uint8(63), uint8(3), uint8(0), uint8(5), uint64(15000))

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
// Byte b of data is the record {key(b), b%8}, where key(b) is b/8
// spread by a power of two that spread picks, from 0 or from just
// below 2⁶⁴, except that byte 0 is key 0 and byte 255 is key 2⁶⁴−1 at
// every spread, so byte order is record order, exact duplicates are
// common and the band test's unsigned compare wraps. The records
// stream through selectSmallest in spans of the lengths spans cycles
// through, reusing one chunk as the engine does, under a budget of m
// records, a watermark with a copy count and the key bound key(bound);
// the result must equal the sorted records past the watermark with
// keys at or below the bound, cut to m. Chaining passes from the zero
// watermark, as formLeaf does, must then emit every record in order:
// the first pass counts the keys into a keyCount span by span and
// bounds each span by the cut of what it has counted, every later pass
// keeps only keys at or below the cut of the whole count, and every
// pass still keeps m records while m remain.
//
// The seeds reach a sorted input (no survivors once the candidates
// fill), a reversed one (every record survives, more than m per span),
// spans shorter than m, an all-equal input under a watermark on its
// one record, bounds below the watermark and inside the input, keys
// whose cut edge passes 2⁶⁴, keys 0 and 2⁶⁴−1 against a watermark in
// between and no bound, the watermark's key with Vals on both sides of
// it, and ties on the full candidates' largest key across spans.
//
// Every sort in a pass borrows the span's consumed tail, past its
// survivors, as scratch. The heavy seeds put one record in four on one
// key: in a first span whose survivors overflow the empty candidates,
// the survivors overflow the tail too, so the sort's top pass runs in
// place and only the heavy key's bucket fits the tail. Later spans'
// survivors fit their tail whole, the candidates filling mid-span fit
// it, and candidates that never fill take the whole last span.
func FuzzSelectSmallest(f *testing.F) {
	ramp, rev := make([]byte, 256), make([]byte, 256)
	mixed, pairs, equal := make([]byte, 600), make([]byte, 400), make([]byte, 300)
	wmKey, ties, heavy := make([]byte, 400), make([]byte, 400), make([]byte, 500)
	for i := range ramp {
		ramp[i], rev[i] = byte(i), byte(255-i)
	}
	for i, r := range seq.Uniform(len(mixed), 9) {
		mixed[i] = byte(r.Key)
		pairs[i%len(pairs)] = []byte{8, 9, 200}[r.Key%3]
	}
	for i, r := range seq.Uniform(len(ties), 10) {
		// Every other record on key 5 (bytes 40–47), Vals 0 to 7.
		wmKey[i] = byte(r.Key)
		if i%2 == 0 {
			wmKey[i] = 40 + byte(r.Key%8)
		}
		// One record in three below key 10, the rest on key 10.
		ties[i] = 80 + byte(r.Key%8)
		if i%3 == 0 {
			ties[i] = byte(r.Key % 80)
		}
	}
	for i := range equal {
		equal[i] = 42
	}
	for i, r := range seq.Uniform(len(heavy), 12) {
		heavy[i] = byte(r.Key) // one record in four on key 5 (bytes 40–47)
		if i%4 == 0 {
			heavy[i] = 40 + byte(r.Key%8)
		}
	}
	top := make([]byte, 300) // two in three records on the top key
	for i := range top {
		top[i] = 255
		if i%3 == 0 {
			top[i] = byte(i)
		}
	}
	f.Add(ramp, []byte{30}, uint16(39), byte(0), uint8(0), byte(255), uint8(0))
	// The m-th record is the first of its key: a cut one record short
	// of m loses it.
	f.Add(ramp, []byte{30}, uint16(40), byte(0), uint8(0), byte(255), uint8(0))
	f.Add(rev, []byte{63}, uint16(9), byte(0), uint8(0), byte(255), uint8(0))
	f.Add(mixed, []byte{5, 0, 12}, uint16(99), byte(77), uint8(2), byte(255), uint8(0))
	f.Add(equal, []byte{49}, uint16(63), byte(42), uint8(100), byte(255), uint8(0))
	f.Add(pairs, []byte{39, 2}, uint16(31), byte(9), uint8(5), byte(255), uint8(0))
	f.Add(rev, []byte{63}, uint16(9), byte(0), uint8(0), byte(100), uint8(7))
	f.Add(mixed, []byte{200}, uint16(40), byte(120), uint8(1), byte(60), uint8(33))
	f.Add(pairs, []byte{39, 2}, uint16(31), byte(9), uint8(5), byte(200), uint8(128+58))
	f.Add(mixed, []byte{5, 0, 12}, uint16(60), byte(0), uint8(0), byte(255), uint8(128+40))
	f.Add(top, []byte{99}, uint16(49), byte(0), uint8(0), byte(255), uint8(128+20))
	// Keys 0 and 2⁶⁴−1 around a watermark, with no bound, near 0 and
	// near 2⁶⁴.
	f.Add(rev, []byte{40, 90}, uint16(200), byte(100), uint8(1), byte(255), uint8(58))
	f.Add(ramp, []byte{17}, uint16(200), byte(130), uint8(1), byte(255), uint8(128+3))
	// The watermark's key with Vals below and above the watermark's.
	f.Add(wmKey, []byte{37}, uint16(99), byte(43), uint8(2), byte(255), uint8(5))
	// Ties on the full candidates' largest key in every later span.
	f.Add(ties, []byte{29, 40}, uint16(149), byte(0), uint8(0), byte(255), uint8(0))
	// Bounds on the watermark's key and just below it.
	f.Add(wmKey, []byte{64}, uint16(99), byte(43), uint8(1), byte(40), uint8(0))
	f.Add(wmKey, []byte{64}, uint16(99), byte(43), uint8(1), byte(39), uint8(0))
	// Survivors that overflow the empty candidates and the span's tail,
	// then survivors and filling candidates that fit it, and candidates
	// that never fill.
	f.Add(heavy, []byte{255}, uint16(99), byte(0), uint8(0), byte(120), uint8(0))
	f.Add(heavy, []byte{40, 255}, uint16(99), byte(0), uint8(0), byte(120), uint8(0))
	f.Add(heavy, []byte{255}, uint16(299), byte(0), uint8(0), byte(50), uint8(0))

	f.Fuzz(func(t *testing.T, data, spans []byte, m uint16, wmByte byte, dups uint8, bound byte, spread uint8) {
		s := uint(spread&127) % 59 // 31<<58 still fits below 2⁶⁴
		var base uint64
		if spread >= 128 {
			base = math.MaxUint64 - 31<<s
		}
		key := func(b byte) uint64 {
			switch b {
			case 0:
				return 0
			case 255:
				return math.MaxUint64
			}
			return base + uint64(b/8)<<s
		}
		rec := func(b byte) seq.Record { return seq.Record{Key: key(b), Val: uint64(b % 8)} }
		in := make([]seq.Record, min(len(data), 4096))
		for i := range in {
			in[i] = rec(data[i])
		}
		M := int(m)%512 + 1
		chunk := make([]seq.Record, 256)
		var keys keyCount
		pass := func(wm watermark, maxKey uint64, counting bool) []seq.Record {
			pos, si := 0, 0
			next := func() ([]seq.Record, uint64, error) {
				l := len(chunk)
				if len(spans) > 0 {
					l = int(spans[si%len(spans)]) + 1
					si++
				}
				sp := chunk[:min(l, len(in)-pos)]
				copy(sp, in[pos:])
				if counting && len(sp) > 0 {
					keys.count(sp, pos == 0)
					maxKey = keys.cut(0, M)
				}
				pos += len(sp)
				return sp, maxKey, nil
			}
			got, _, err := selectSmallest(next, wm, make([]seq.Record, 0, M), rt.SeqSortRecords)
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
		j := i
		for j < len(sorted) && j < i+M && sorted[j].Key <= key(bound) {
			j++
		}
		if got, want := pass(wm, key(bound), false), sorted[i:j]; !slices.Equal(got, want) {
			t.Fatalf("m=%d watermark %v×%d bound %d: got %v, want %v", M, wm.rec, wm.dups, key(bound), got, want)
		}

		if len(in) > 64*M {
			return
		}
		var all []seq.Record
		for wm = (watermark{}); len(all) < len(in); {
			maxKey := uint64(math.MaxUint64)
			if len(all) > 0 {
				maxKey = keys.cut(len(all), M)
			}
			got := pass(wm, maxKey, len(all) == 0)
			if want := min(M, len(in)-len(all)); len(got) != want {
				t.Fatalf("m=%d: pass after %d of %d records kept %d under cut %d, want %d",
					M, len(all), len(in), len(got), maxKey, want)
			}
			all = append(all, got...)
			wm = wm.advance(got)
		}
		if !slices.Equal(all, sorted) {
			t.Fatalf("m=%d: chained passes diverge from the sorted input", M)
		}
	})
}
