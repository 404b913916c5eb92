package wire_test

import (
	"bytes"
	"fmt"
	"io"

	"asymsort/internal/seq"
	"asymsort/internal/wire"
)

// A chunked frame round trip: the writer announces its record count up
// front, streams records in chunks, and terminates the frame; the
// reader validates the framing (count, chunk caps, terminator) while
// decoding. This is the dialect HTTP clients speak on /sort when they
// send Content-Type application/x-asymsort-records.
func Example() {
	recs := []seq.Record{
		{Key: 30, Val: 0},
		{Key: 10, Val: 1},
		{Key: 20, Val: 2},
	}

	var frame bytes.Buffer
	fw, err := wire.NewWriter(&frame, int64(len(recs)))
	if err != nil {
		panic(err)
	}
	if err := fw.WriteRecords(recs); err != nil {
		panic(err)
	}
	if err := fw.Close(); err != nil {
		panic(err)
	}
	fmt.Printf("frame: %d bytes for %d records\n", frame.Len(), len(recs))

	fr, err := wire.NewReader(&frame)
	if err != nil {
		panic(err)
	}
	fmt.Printf("header: count=%d contiguous=%v\n",
		fr.Header().Count, fr.Header().Contiguous)
	buf := make([]seq.Record, 2)
	for {
		n, err := fr.ReadRecords(buf)
		for _, r := range buf[:n] {
			fmt.Printf("record: key=%d val=%d\n", r.Key, r.Val)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			panic(err)
		}
	}

	// Output:
	// frame: 72 bytes for 3 records
	// header: count=3 contiguous=false
	// record: key=30 val=0
	// record: key=10 val=1
	// record: key=20 val=2
}

// EncodeRecords and seq.Decode are the raw payload codec under both
// frame dialects: 16 little-endian bytes per record, byte-identical to
// the extmem on-disk record layout — which is why a contiguous frame
// staged to a file can be handed to the external-sort engine without a
// decode pass.
func ExampleEncodeRecords() {
	recs := []seq.Record{{Key: 7, Val: 42}, {Key: 256, Val: 1}}
	raw := make([]byte, len(recs)*wire.RecordBytes)
	wire.EncodeRecords(raw, recs)
	fmt.Printf("payload: %d bytes, first record bytes % x\n", len(raw), raw[:16])

	back := make([]seq.Record, 2)
	seq.Decode(back, raw)
	fmt.Printf("decoded: %v\n", back)

	// Output:
	// payload: 32 bytes, first record bytes 07 00 00 00 00 00 00 00 2a 00 00 00 00 00 00 00
	// decoded: [{7 42} {256 1}]
}
