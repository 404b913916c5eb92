package seq

import (
	"encoding/binary"
	"io"
	"unsafe"
)

// A record's encoded form, in record files on disk and in record frames
// on the wire, is Key then Val, each a little-endian uint64. On a
// little-endian host that is the Record's own memory, so this codec
// moves a record slice's bytes with one copy or one syscall; elsewhere
// it converts field by field through a scratch buffer.

// recordBytes is the encoded size of one Record.
const recordBytes = 16

// littleEndian reports whether a Record's memory is its encoded form.
// TestRecordLayout clears it to run the field-by-field path.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// view returns recs' memory as bytes, without copying, and whether
// those bytes are recs' encoded form. This is the repository's only
// unsafe code; TestRecordLayout pins the layout it relies on.
func view(recs []Record) ([]byte, bool) {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(recs))), recordBytes*len(recs)), littleEndian
}

// Encoded returns recs' encoded form. On a little-endian host that is
// recs' own memory, so the caller must not modify it and must not use
// it past a change to recs; elsewhere it is a fresh buffer.
func Encoded(recs []Record) []byte {
	if b, ok := view(recs); ok {
		return b
	}
	raw := make([]byte, recordBytes*len(recs))
	encodeFields(raw, recs)
	return raw
}

// Decode fills recs from the encoded records at the head of src, which
// must hold 16·len(recs) bytes.
func Decode(recs []Record, src []byte) {
	if b, ok := view(recs); ok {
		copy(b, src[:len(b)])
	} else {
		decodeFields(recs, src)
	}
}

// ReadFull fills recs from r as io.ReadFull does and returns the bytes
// read.
func ReadFull(r io.Reader, recs []Record) (int, error) {
	return readInto(recs, func(b []byte) (int, error) { return io.ReadFull(r, b) })
}

// ReadAt fills recs from r at byte offset off in one call and returns
// the bytes read, with io.ReaderAt's contract.
func ReadAt(r io.ReaderAt, recs []Record, off int64) (int, error) {
	return readInto(recs, func(b []byte) (int, error) { return r.ReadAt(b, off) })
}

// readInto runs read on recs' encoded bytes: on recs' own memory where
// view allows, else on a scratch buffer whose whole records it then
// decodes.
func readInto(recs []Record, read func([]byte) (int, error)) (int, error) {
	if b, ok := view(recs); ok {
		return read(b)
	}
	raw := make([]byte, recordBytes*len(recs))
	n, err := read(raw)
	decodeFields(recs[:n/recordBytes], raw)
	return n, err
}

// encodeFields writes recs' encoded form into dst field by field: the
// codec where view declines, and the reference the layout test holds
// the byte view to.
func encodeFields(dst []byte, recs []Record) {
	for i, r := range recs {
		binary.LittleEndian.PutUint64(dst[i*recordBytes:], r.Key)
		binary.LittleEndian.PutUint64(dst[i*recordBytes+8:], r.Val)
	}
}

// decodeFields fills recs from their encoded form in src field by field,
// the reverse of encodeFields.
func decodeFields(recs []Record, src []byte) {
	for i := range recs {
		recs[i].Key = binary.LittleEndian.Uint64(src[i*recordBytes:])
		recs[i].Val = binary.LittleEndian.Uint64(src[i*recordBytes+8:])
	}
}
