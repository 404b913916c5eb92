package ramsort

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"asymsort/internal/aram"
	"asymsort/internal/seq"
	"asymsort/internal/xrand"
)

// sortedCopyCheck verifies out is a sorted permutation of in.
func sortedCopyCheck(t *testing.T, name string, out, in []seq.Record) {
	t.Helper()
	if !seq.IsSorted(out) {
		t.Errorf("%s: output not sorted", name)
	}
	if !seq.IsPermutation(out, in) {
		t.Errorf("%s: output not a permutation of input", name)
	}
}

func TestTreeSortCorrectness(t *testing.T) {
	gens := map[string]func(n int) []seq.Record{
		"uniform":      func(n int) []seq.Record { return seq.Uniform(n, 1) },
		"sorted":       seq.Sorted,
		"reversed":     seq.Reversed,
		"almostsorted": func(n int) []seq.Record { return seq.AlmostSorted(n, n/10, 2) },
		"fewdistinct":  func(n int) []seq.Record { return seq.FewDistinct(n, 7, 3) },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 3, 17, 256, 5000} {
			in := gen(n)
			mem := aram.New(8)
			arr := aram.FromSlice(mem, in)
			out := TreeSort(arr)
			sortedCopyCheck(t, name, out.Unwrap(), in)
		}
	}
}

func TestTreeSortProperty(t *testing.T) {
	f := func(seed uint64, szRaw uint16) bool {
		n := int(szRaw % 2000)
		in := seq.Uniform(n, seed)
		mem := aram.New(4)
		out := TreeSort(aram.FromSlice(mem, in))
		return seq.IsSorted(out.Unwrap()) && seq.IsPermutation(out.Unwrap(), in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The headline claim of Section 3: O(n) writes. We check that writes per
// element stay below a fixed constant as n grows 16-fold (if writes were
// Θ(n log n) the per-element figure would grow by lg 16 = 4 extra factors).
func TestInsertWritesLinear(t *testing.T) {
	perElem := func(n int) float64 {
		in := seq.Uniform(n, 9)
		mem := aram.New(8)
		arr := aram.FromSlice(mem, in)
		base := mem.Stats()
		_ = TreeSort(arr)
		d := mem.Stats().Sub(base)
		return float64(d.Writes) / float64(n)
	}
	small := perElem(1 << 12)
	big := perElem(1 << 16)
	if big > small*1.5 {
		t.Errorf("writes/elem grew from %.2f to %.2f over 16x n; not O(n)", small, big)
	}
	if big > 40 {
		t.Errorf("writes/elem = %.2f, implausibly large for O(n) writes", big)
	}
}

// Reads should be Θ(n log n): reads/(n lg n) roughly flat.
func TestTreeSortReadsNLogN(t *testing.T) {
	perUnit := func(n int) float64 {
		in := seq.Uniform(n, 5)
		mem := aram.New(8)
		arr := aram.FromSlice(mem, in)
		base := mem.Stats()
		_ = TreeSort(arr)
		d := mem.Stats().Sub(base)
		return float64(d.Reads) / (float64(n) * math.Log2(float64(n)))
	}
	small := perUnit(1 << 12)
	big := perUnit(1 << 16)
	if big > small*1.6 || small > big*1.6 {
		t.Errorf("reads/(n lg n) moved from %.2f to %.2f; not Θ(n log n)", small, big)
	}
}

// Amortized O(1) rotations per insertion.
func TestRotationsLinear(t *testing.T) {
	const n = 1 << 15
	mem := aram.New(1)
	tr := NewTree(mem, n)
	r := xrand.New(3)
	for i := 0; i < n; i++ {
		tr.Insert(r.Next(), uint64(i))
	}
	if rot := tr.Rotations(); rot > 3*n {
		t.Errorf("rotations = %d for n = %d inserts; want <= 3n", rot, n)
	}
}

func TestRBInvariantsUnderInsertDelete(t *testing.T) {
	mem := aram.New(1)
	tr := NewTree(mem, 0)
	r := xrand.New(77)
	live := map[uint64]bool{}
	keys := []uint64{}
	for step := 0; step < 4000; step++ {
		if len(keys) == 0 || r.Float64() < 0.6 {
			k := r.Uint64n(1 << 20)
			if !live[k] {
				tr.Insert(k, k)
				live[k] = true
				keys = append(keys, k)
			}
		} else {
			i := r.Intn(len(keys))
			k := keys[i]
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			if !tr.Delete(k) {
				t.Fatalf("Delete(%d) returned false for live key", k)
			}
			delete(live, k)
		}
		if step%97 == 0 {
			if _, err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if tr.Len() != len(live) {
				t.Fatalf("step %d: Len = %d, want %d", step, tr.Len(), len(live))
			}
		}
	}
	if _, err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Drain in order and verify sortedness against the live set.
	want := make([]uint64, 0, len(live))
	for k := range live {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := make([]uint64, 0, len(live))
	tr.InOrder(func(k, _ uint64) { got = append(got, k) })
	if len(got) != len(want) {
		t.Fatalf("InOrder yielded %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("InOrder[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTreeDeleteMissingKey(t *testing.T) {
	mem := aram.New(1)
	tr := NewTree(mem, 4)
	tr.Insert(5, 0)
	if tr.Delete(6) {
		t.Error("Delete of missing key returned true")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d after failed delete", tr.Len())
	}
}

func TestTreeMinAndDeleteMin(t *testing.T) {
	mem := aram.New(1)
	tr := NewTree(mem, 8)
	if _, _, ok := tr.Min(); ok {
		t.Error("Min on empty tree returned ok")
	}
	if _, _, ok := tr.DeleteMin(); ok {
		t.Error("DeleteMin on empty tree returned ok")
	}
	for _, k := range []uint64{5, 3, 9, 1, 7} {
		tr.Insert(k, k*10)
	}
	k, v, ok := tr.Min()
	if !ok || k != 1 || v != 10 {
		t.Errorf("Min = (%d,%d,%v), want (1,10,true)", k, v, ok)
	}
	var drained []uint64
	for {
		k, _, ok := tr.DeleteMin()
		if !ok {
			break
		}
		drained = append(drained, k)
	}
	want := []uint64{1, 3, 5, 7, 9}
	for i := range want {
		if drained[i] != want[i] {
			t.Fatalf("drained = %v, want %v", drained, want)
		}
	}
}

func TestTreeDuplicateKeys(t *testing.T) {
	mem := aram.New(1)
	tr := NewTree(mem, 8)
	tr.Insert(4, 100)
	tr.Insert(4, 200)
	tr.Insert(4, 300)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	vals := map[uint64]bool{}
	for i := 0; i < 3; i++ {
		k, v, ok := tr.DeleteMin()
		if !ok || k != 4 {
			t.Fatalf("DeleteMin %d = (%d,%v)", i, k, ok)
		}
		vals[v] = true
	}
	if !vals[100] || !vals[200] || !vals[300] {
		t.Errorf("payloads lost on duplicates: %v", vals)
	}
}

// TestTreeSortTotalOrder: TreeSort lists equal keys by payload even
// when they arrive out of payload order, as pramsort's metered leaves
// hand them over after its randomized placement.
func TestTreeSortTotalOrder(t *testing.T) {
	in := seq.FewDistinct(2000, 7, 3)
	for i := range in {
		in[i].Val = uint64(len(in) - i)
	}
	out := TreeSort(aram.FromSlice(aram.New(1), in)).Unwrap()
	want := slices.Clone(in)
	slices.SortFunc(want, seq.TotalCompare)
	if !slices.Equal(out, want) {
		t.Fatal("TreeSort does not order equal keys by payload")
	}
}

func TestBaselineSortsCorrect(t *testing.T) {
	type sorter struct {
		name string
		run  func(*aram.Array[seq.Record])
	}
	sorters := []sorter{
		{"quicksort", func(a *aram.Array[seq.Record]) { Quicksort(a, 42) }},
		{"mergesort", Mergesort},
		{"heapsort", Heapsort},
		{"selectionsort", SelectionSort},
	}
	for _, s := range sorters {
		for _, n := range []int{0, 1, 2, 13, 100, 3000} {
			in := seq.Uniform(n, uint64(n)+1)
			mem := aram.New(4)
			arr := aram.FromSlice(mem, in)
			s.run(arr)
			sortedCopyCheck(t, s.name, arr.Unwrap(), in)
		}
		// Adversarial patterns.
		for _, gen := range []func(int) []seq.Record{seq.Sorted, seq.Reversed} {
			in := gen(500)
			mem := aram.New(4)
			arr := aram.FromSlice(mem, in)
			s.run(arr)
			sortedCopyCheck(t, s.name, arr.Unwrap(), in)
		}
	}
}

func TestBaselineSortsProperty(t *testing.T) {
	f := func(seed uint64, szRaw uint16, pick uint8) bool {
		n := int(szRaw % 1200)
		in := seq.Uniform(n, seed)
		mem := aram.New(2)
		arr := aram.FromSlice(mem, in)
		switch pick % 4 {
		case 0:
			Quicksort(arr, seed)
		case 1:
			Mergesort(arr)
		case 2:
			Heapsort(arr)
		case 3:
			SelectionSort(arr)
		}
		return seq.IsSorted(arr.Unwrap()) && seq.IsPermutation(arr.Unwrap(), in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Selection sort writes O(n); mergesort writes Θ(n log n). Both shapes are
// pinned here because the E1 experiment quotes them as reference points.
func TestBaselineWriteShapes(t *testing.T) {
	const n = 1 << 12
	in := seq.Uniform(n, 4)

	memSel := aram.New(1)
	arrSel := aram.FromSlice(memSel, in)
	base := memSel.Stats()
	SelectionSort(arrSel)
	selWrites := memSel.Stats().Sub(base).Writes
	if selWrites > 4*n {
		t.Errorf("selection sort writes = %d, want <= 4n = %d", selWrites, 4*n)
	}

	memMs := aram.New(1)
	arrMs := aram.FromSlice(memMs, in)
	base = memMs.Stats()
	Mergesort(arrMs)
	msWrites := memMs.Stats().Sub(base).Writes
	// 2 writes per element per level (merge into aux + copy back).
	minExpected := uint64(n) * uint64(math.Log2(n)) // lower bound with slack
	if msWrites < minExpected {
		t.Errorf("mergesort writes = %d, suspiciously below n lg n = %d", msWrites, minExpected)
	}
}

// With ω large, TreeSort's total asymmetric cost must beat quicksort's.
func TestTreeSortBeatsQuicksortAtHighOmega(t *testing.T) {
	const n = 1 << 14
	const omega = 64
	in := seq.Uniform(n, 8)

	memT := aram.New(omega)
	arrT := aram.FromSlice(memT, in)
	base := memT.Stats()
	_ = TreeSort(arrT)
	costT := memT.Stats().Sub(base).Cost(omega)

	memQ := aram.New(omega)
	arrQ := aram.FromSlice(memQ, in)
	base = memQ.Stats()
	Quicksort(arrQ, 1)
	costQ := memQ.Stats().Sub(base).Cost(omega)

	if costT >= costQ {
		t.Errorf("at ω=%d TreeSort cost %d >= quicksort cost %d", omega, costT, costQ)
	}
}

func TestPriorityQueueMatchesReference(t *testing.T) {
	mem := aram.New(2)
	q := NewPriorityQueue(mem, 16)
	r := xrand.New(12)
	var ref []uint64
	for step := 0; step < 3000; step++ {
		if len(ref) == 0 || r.Float64() < 0.55 {
			k := r.Uint64n(1 << 16)
			q.Insert(k, k)
			ref = append(ref, k)
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		} else {
			k, _, ok := q.DeleteMin()
			if !ok {
				t.Fatal("DeleteMin failed with non-empty reference")
			}
			if k != ref[0] {
				t.Fatalf("step %d: DeleteMin = %d, want %d", step, k, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
	}
}

func TestDictBasics(t *testing.T) {
	mem := aram.New(2)
	d := NewDict(mem, 16)
	if _, ok := d.Search(1); ok {
		t.Error("Search on empty dict returned ok")
	}
	d.Insert(1, 10)
	d.Insert(2, 20)
	d.Insert(1, 11) // overwrite
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if v, ok := d.Search(1); !ok || v != 11 {
		t.Errorf("Search(1) = (%d,%v), want (11,true)", v, ok)
	}
	if !d.Delete(2) {
		t.Error("Delete(2) = false")
	}
	if d.Delete(2) {
		t.Error("second Delete(2) = true")
	}
	if _, ok := d.Search(2); ok {
		t.Error("Search(2) after delete returned ok")
	}
}

func TestDictMatchesMapReference(t *testing.T) {
	f := func(seed uint64) bool {
		mem := aram.New(1)
		d := NewDict(mem, 8)
		ref := map[uint64]uint64{}
		r := xrand.New(seed)
		for step := 0; step < 500; step++ {
			k := r.Uint64n(64) // small key space to force collisions
			switch r.Intn(3) {
			case 0:
				v := r.Next()
				d.Insert(k, v)
				ref[k] = v
			case 1:
				_, refOk := ref[k]
				if d.Delete(k) != refOk {
					return false
				}
				delete(ref, k)
			case 2:
				v, ok := d.Search(k)
				rv, refOk := ref[k]
				if ok != refOk || (ok && v != rv) {
					return false
				}
			}
			if d.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// PQ per-op writes must be amortized O(1): total writes linear in ops.
func TestPriorityQueueWritesAmortizedConstant(t *testing.T) {
	const ops = 1 << 14
	mem := aram.New(1)
	q := NewPriorityQueue(mem, ops)
	r := xrand.New(6)
	base := mem.Stats()
	for i := 0; i < ops; i++ {
		q.Insert(r.Next(), uint64(i))
	}
	for i := 0; i < ops; i++ {
		q.DeleteMin()
	}
	writes := mem.Stats().Sub(base).Writes
	if perOp := float64(writes) / float64(2*ops); perOp > 20 {
		t.Errorf("PQ writes/op = %.2f; expected amortized O(1) small constant", perOp)
	}
}
