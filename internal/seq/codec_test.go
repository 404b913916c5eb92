package seq

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"unsafe"
)

// TestRecordLayout pins the in-memory layout the codec's byte view
// relies on, and holds every codec function to the per-field reference
// loop in both directions, on the edge values of each field at lengths
// around a page of records. It runs the codec twice: as this host runs
// it, and with the view declined, so the field-by-field path that
// big-endian hosts take is tested on every host.
func TestRecordLayout(t *testing.T) {
	if s := unsafe.Sizeof(Record{}); s != recordBytes {
		t.Fatalf("Sizeof(Record) = %d, want %d", s, recordBytes)
	}
	if o := unsafe.Offsetof(Record{}.Val); o != 8 {
		t.Fatalf("Offsetof(Record.Val) = %d, want 8", o)
	}

	// The encoded form is little-endian on every host.
	one := []Record{{Key: 0x0102030405060708, Val: 1 << 63}}
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0x80}
	got := make([]byte, recordBytes)
	encodeFields(got, one)
	if !bytes.Equal(got, want) {
		t.Fatalf("encodeFields(%+v) = % x, want % x", one[0], got, want)
	}

	native := littleEndian
	defer func() { littleEndian = native }()
	for _, le := range []bool{native, false} {
		littleEndian = le
		checkCodec(t, le)
	}
}

// checkCodec holds Encoded, Decode, ReadFull and ReadAt to the per-field
// loop with littleEndian set to le.
func checkCodec(t *testing.T, le bool) {
	t.Helper()
	edges := []uint64{0, math.MaxUint64, 1 << 63}
	rnd := Uniform(4097, 9)
	for _, n := range []int{0, 1, 2, 4097} {
		recs := make([]Record, n)
		for i := range recs {
			// Walk every (Key, Val) pair of edge values, then random ones.
			switch {
			case i < len(edges)*len(edges):
				recs[i] = Record{Key: edges[i/len(edges)], Val: edges[i%len(edges)]}
			default:
				recs[i] = Record{Key: rnd[i].Key, Val: rnd[n-1-i].Key}
			}
		}
		ref := make([]byte, recordBytes*n)
		encodeFields(ref, recs)

		enc := Encoded(recs)
		if !bytes.Equal(enc, ref) {
			t.Fatalf("view=%v n=%d: Encoded differs from the per-field loop", le, n)
		}
		if n > 0 && le != (&enc[0] == (*byte)(unsafe.Pointer(&recs[0]))) {
			t.Fatalf("view=%v n=%d: Encoded shares recs' memory = %v", le, n, !le)
		}
		dec := make([]Record, n)
		Decode(dec, ref)
		if !slices.Equal(dec, recs) {
			t.Fatalf("view=%v n=%d: Decode differs from the input", le, n)
		}
		viaFields := make([]Record, n)
		decodeFields(viaFields, enc)
		if !slices.Equal(viaFields, recs) {
			t.Fatalf("view=%v n=%d: decodeFields(Encoded) differs from the input", le, n)
		}

		full := make([]Record, n)
		if m, err := ReadFull(bytes.NewReader(ref), full); err != nil || m != len(ref) || !slices.Equal(full, recs) {
			t.Fatalf("view=%v n=%d: ReadFull read %d bytes (err %v), want the input back", le, n, m, err)
		}
		const base = 3 * recordBytes
		at := make([]Record, n)
		if m, err := ReadAt(bytes.NewReader(append(make([]byte, base), ref...)), at, base); m != len(ref) || !slices.Equal(at, recs) {
			t.Fatalf("view=%v n=%d: ReadAt read %d bytes (err %v), want the input back", le, n, m, err)
		}
		// A short read reports its bytes and fills the whole records it
		// delivered.
		if n >= 2 {
			part := make([]Record, n)
			m, err := ReadFull(bytes.NewReader(ref[:recordBytes+3]), part)
			if m != recordBytes+3 || err == nil || part[0] != recs[0] {
				t.Fatalf("view=%v n=%d: short ReadFull gave %d bytes (err %v), first record %+v", le, n, m, err, part[0])
			}
		}
	}
}
