package rt

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"asymsort/internal/seq"
	"asymsort/internal/xrand"
)

// seqSortFamilies are the leaf sort's input shapes: the usual orders,
// plus the radix-specific edges — keys agreeing in all but their last
// byte, one key with distinct payloads (Val digits only), exact
// duplicates (no digit splits them), and keys and payloads next to the
// top of the uint64 range.
var seqSortFamilies = map[string]func(n int) []seq.Record{
	"random":   func(n int) []seq.Record { return seq.Uniform(n, uint64(n)*7+1) },
	"sorted":   func(n int) []seq.Record { return seq.Sorted(n) },
	"reversed": func(n int) []seq.Record { return seq.Reversed(n) },
	"dup":      func(n int) []seq.Record { return seq.FewDistinct(n, 3, uint64(n)+2) },
	"all-equal": func(n int) []seq.Record {
		out := make([]seq.Record, n)
		for i := range out {
			out[i] = seq.Record{Key: 5, Val: 5}
		}
		return out
	},
	"organ-pipe": func(n int) []seq.Record {
		out := make([]seq.Record, n)
		for i := range out {
			k := min(i, n-1-i)
			out[i] = seq.Record{Key: uint64(k), Val: uint64(i)}
		}
		return out
	},
	"top7-bytes-equal": func(n int) []seq.Record {
		r := xrand.New(uint64(n) + 3)
		out := make([]seq.Record, n)
		for i := range out {
			out[i] = seq.Record{Key: 0xa5c3_0f1e_2d3c_4b00 | r.Next()&0xff, Val: r.Next()}
		}
		return out
	},
	"equal-keys-distinct-vals": func(n int) []seq.Record {
		r := xrand.New(uint64(n) + 4)
		out := make([]seq.Record, n)
		for i := range out {
			out[i] = seq.Record{Key: 1 << 40, Val: r.Next()}
		}
		return out
	},
	"exact-duplicates": func(n int) []seq.Record {
		r := xrand.New(uint64(n) + 5)
		out := make([]seq.Record, n)
		for i := range out {
			v := r.Uint64n(4)
			out[i] = seq.Record{Key: v * 0x0101_0101, Val: v}
		}
		return out
	},
	"near-max": func(n int) []seq.Record {
		r := xrand.New(uint64(n) + 6)
		out := make([]seq.Record, n)
		for i := range out {
			out[i] = seq.Record{Key: math.MaxUint64 - r.Uint64n(300), Val: math.MaxUint64 - r.Uint64n(3)}
		}
		return out
	},
}

// checkSeqSort asserts that sorting in up to m records — with
// SeqSortRecords when m is len(in), else SeqSortSmallest — with a
// scratch of s records leaves the first m records of slices.SortFunc
// under seq.TotalCompare in the prefix and a permutation of in in the
// whole, leaving in untouched.
func checkSeqSort(t *testing.T, name string, in []seq.Record, m, s int) {
	t.Helper()
	got := slices.Clone(in)
	scratch := make([]seq.Record, s)
	if m == len(in) {
		SeqSortRecords(got, scratch)
	} else {
		SeqSortSmallest(got, m, scratch)
	}
	want := slices.Clone(in)
	slices.SortFunc(want, seq.TotalCompare)
	if !slices.Equal(got[:m], want[:m]) {
		t.Fatalf("%s n=%d m=%d scratch=%d: sorted prefix diverges from slices.SortFunc", name, len(in), m, s)
	}
	slices.SortFunc(got, seq.TotalCompare)
	if !slices.Equal(got, want) {
		t.Fatalf("%s n=%d m=%d scratch=%d: the output is not a permutation of the input", name, len(in), m, s)
	}
}

// TestSeqSortRecords checks the native leaf sort against the stdlib
// across input families and sizes around the insertion-sort cutoff,
// the 256-bucket digit width and the 2 048-bucket scatter cap, whole
// and cut to prefixes of one record, a few records, and about half.
// Each runs with no scratch (in place throughout), a third of the
// slice (the top pass in place, buckets that fit out of place), the
// slice's length and a few records more (out of place throughout).
func TestSeqSortRecords(t *testing.T) {
	sizes := []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1,
		2*radixCutoff - 1, 100, 255, 256, 257, 1000, 2048, 2049, 5000}
	for name, g := range seqSortFamilies {
		for _, n := range sizes {
			in := g(n)
			for _, m := range []int{n, n / 2, min(n, 7), min(n, 1)} {
				for _, s := range []int{0, n / 3, n, n + 5} {
					checkSeqSort(t, name, in, m, s)
				}
			}
		}
	}
}

// TestSeqSortAllocs holds the leaf sort at zero allocations, in place
// and with scratch, at formation's leaf and candidate sizes.
func TestSeqSortAllocs(t *testing.T) {
	for _, n := range []int{1024, 4096} {
		in := seq.Uniform(n, 3)
		work, scratch := make([]seq.Record, n), make([]seq.Record, n)
		for _, s := range []int{0, n} {
			allocs := testing.AllocsPerRun(20, func() {
				copy(work, in)
				SeqSortRecords(work, scratch[:s])
			})
			if allocs != 0 {
				t.Errorf("n=%d scratch=%d: %v allocations per sort, want 0", n, s, allocs)
			}
		}
	}
}

// FuzzSeqSortRecords is the differential test of the radix leaf: every
// 16 bytes of input are one record, and squeeze shifts keys and
// payloads right so shared prefixes, equal keys and exact duplicates
// are common. m, taken modulo n+1, cuts the sort to a prefix, and s,
// taken modulo n+9, is the scratch length: under n the top pass runs
// in place, and only buckets that fit go out of place.
func FuzzSeqSortRecords(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0), uint16(0))
	f.Add(make([]byte, 16*radixCutoff), uint8(0), uint16(radixCutoff), uint16(radixCutoff))
	for i, n := range []int{radixCutoff + 1, 300, 3000} {
		raw := make([]byte, 16*n)
		r := xrand.New(uint64(i) + 11)
		for j := 0; j < len(raw); j += 8 {
			binary.LittleEndian.PutUint64(raw[j:], r.Next())
		}
		f.Add(raw, uint8(0), uint16(n), uint16(0))
		f.Add(raw, uint8(58), uint16(n), uint16(n))
		f.Add(raw, uint8(0xff), uint16(n), uint16(n/3))
		f.Add(raw, uint8(0), uint16(n/2), uint16(n+3))
		f.Add(raw, uint8(58), uint16(n/3), uint16(n/3))
		f.Add(raw, uint8(0xff), uint16(1), uint16(n))
	}
	f.Fuzz(func(t *testing.T, raw []byte, squeeze uint8, m, s uint16) {
		in := make([]seq.Record, len(raw)/16)
		for i := range in {
			in[i] = seq.Record{
				Key: binary.LittleEndian.Uint64(raw[16*i:]) >> (squeeze & 63),
				Val: binary.LittleEndian.Uint64(raw[16*i+8:]) >> (squeeze >> 2),
			}
		}
		checkSeqSort(t, "fuzz", in, int(m)%(len(in)+1), int(s)%(len(in)+9))
	})
}

// BenchmarkSeqSortRecords times the leaf sort on uniform unique records
// at a one-pass leaf of the classical plan (1 024), a full candidate
// set (M = 4 096) and a small served job (40 000), in place and with a
// scratch of the slice's length, beside slices.SortFunc(seq.TotalCompare)
// as the ceiling it is read against. Each iteration re-copies the
// fixed-seed input before sorting, on every row alike.
func BenchmarkSeqSortRecords(b *testing.B) {
	for _, n := range []int{1024, 4096, 40_000} {
		in := seq.Uniform(n, 1)
		work, scratch := make([]seq.Record, n), make([]seq.Record, n)
		sorts := []struct {
			name string
			sort func([]seq.Record)
		}{
			{"radix", func(a []seq.Record) { SeqSortRecords(a, nil) }},
			{"radix-scratch", func(a []seq.Record) { SeqSortRecords(a, scratch) }},
			{"slices", func(a []seq.Record) { slices.SortFunc(a, seq.TotalCompare) }},
		}
		for _, s := range sorts {
			b.Run(fmt.Sprintf("n=%d/%s", n, s.name), func(b *testing.B) {
				for b.Loop() {
					copy(work, in)
					s.sort(work)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
			})
		}
	}
}
