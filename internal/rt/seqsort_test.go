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
// SeqSortRecords when m is len(in), else SeqSortSmallest — leaves the
// first m records of slices.SortFunc under seq.TotalCompare in the
// prefix and a permutation of in in the whole, leaving in untouched.
func checkSeqSort(t *testing.T, name string, in []seq.Record, m int) {
	t.Helper()
	got := slices.Clone(in)
	if m == len(in) {
		SeqSortRecords(got)
	} else {
		SeqSortSmallest(got, m)
	}
	want := slices.Clone(in)
	slices.SortFunc(want, seq.TotalCompare)
	if !slices.Equal(got[:m], want[:m]) {
		t.Fatalf("%s n=%d m=%d: sorted prefix diverges from slices.SortFunc", name, len(in), m)
	}
	slices.SortFunc(got, seq.TotalCompare)
	if !slices.Equal(got, want) {
		t.Fatalf("%s n=%d m=%d: the output is not a permutation of the input", name, len(in), m)
	}
}

// TestSeqSortRecords checks the native leaf sort against the stdlib
// across input families and sizes around the insertion-sort cutoff and
// the 256-bucket digit width, whole and cut to prefixes of one record,
// a few records, and about half.
func TestSeqSortRecords(t *testing.T) {
	sizes := []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1,
		2*radixCutoff - 1, 100, 255, 256, 257, 1000, 5000}
	for name, g := range seqSortFamilies {
		for _, n := range sizes {
			in := g(n)
			for _, m := range []int{n, n / 2, min(n, 7), min(n, 1)} {
				checkSeqSort(t, name, in, m)
			}
		}
	}
}

// FuzzSeqSortRecords is the differential test of the radix leaf: every
// 16 bytes of input are one record, and squeeze shifts keys and
// payloads right so shared prefixes, equal keys and exact duplicates
// are common. m, taken modulo n+1, cuts the sort to a prefix.
func FuzzSeqSortRecords(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Add(make([]byte, 16*radixCutoff), uint8(0), uint16(radixCutoff))
	for i, n := range []int{radixCutoff + 1, 300, 3000} {
		raw := make([]byte, 16*n)
		r := xrand.New(uint64(i) + 11)
		for j := 0; j < len(raw); j += 8 {
			binary.LittleEndian.PutUint64(raw[j:], r.Next())
		}
		f.Add(raw, uint8(0), uint16(n))
		f.Add(raw, uint8(58), uint16(n))
		f.Add(raw, uint8(0xff), uint16(n))
		f.Add(raw, uint8(0), uint16(n/2))
		f.Add(raw, uint8(58), uint16(n/3))
		f.Add(raw, uint8(0xff), uint16(1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, squeeze uint8, m uint16) {
		in := make([]seq.Record, len(raw)/16)
		for i := range in {
			in[i] = seq.Record{
				Key: binary.LittleEndian.Uint64(raw[16*i:]) >> (squeeze & 63),
				Val: binary.LittleEndian.Uint64(raw[16*i+8:]) >> (squeeze >> 2),
			}
		}
		checkSeqSort(t, "fuzz", in, int(m)%(len(in)+1))
	})
}

// BenchmarkSeqSortRecords times the leaf sort on uniform unique records
// at one formation run (M = 4096) and a small served job (40 000),
// beside slices.SortFunc(seq.TotalCompare) as the ceiling it is read
// against. Each iteration re-copies the fixed-seed input before
// sorting, on both sides alike.
func BenchmarkSeqSortRecords(b *testing.B) {
	sorts := []struct {
		name string
		sort func([]seq.Record)
	}{
		{"radix", SeqSortRecords},
		{"slices", func(a []seq.Record) { slices.SortFunc(a, seq.TotalCompare) }},
	}
	for _, n := range []int{4096, 40_000} {
		in := seq.Uniform(n, 1)
		work := make([]seq.Record, n)
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
