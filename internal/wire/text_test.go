package wire

import (
	"bytes"
	"io"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"asymsort/internal/seq"
)

// readText reads all of in through a TextReader in batches of batch
// records.
func readText(in string, withVals bool, batch int) ([]seq.Record, error) {
	tr := NewTextReader(strings.NewReader(in), withVals)
	buf := make([]seq.Record, batch)
	var out []seq.Record
	for {
		n, err := tr.ReadRecords(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

func TestTextReader(t *testing.T) {
	long := "17\n42\n" + strings.Repeat("9", MaxLineBytes+16) + "\n5\n"
	for _, c := range []struct {
		name     string
		in       string
		withVals bool
		want     []seq.Record
		err      string // the error's text, empty for a clean decode
	}{
		{name: "empty", in: ""},
		{name: "bare keys, payload = record index", in: "30\n10\n20\n",
			want: []seq.Record{{Key: 30, Val: 0}, {Key: 10, Val: 1}, {Key: 20, Val: 2}}},
		{name: "blank lines are skipped and not numbered", in: "\n5\n\n\n3\n\n",
			want: []seq.Record{{Key: 5, Val: 0}, {Key: 3, Val: 1}}},
		{name: "no final newline", in: "5\n18446744073709551615",
			want: []seq.Record{{Key: 5, Val: 0}, {Key: 1<<64 - 1, Val: 1}}},
		{name: "CRLF", in: "5\r\n\r\n3\r\n",
			want: []seq.Record{{Key: 5, Val: 0}, {Key: 3, Val: 1}}},
		{name: "key value lines", in: "5 7\n\n3 18446744073709551615\r\n", withVals: true,
			want: []seq.Record{{Key: 5, Val: 7}, {Key: 3, Val: 1<<64 - 1}}},
		{name: "non-numeric line", in: "1\n2\nx\n4\n",
			want: []seq.Record{{Key: 1, Val: 0}, {Key: 2, Val: 1}},
			err:  `line 3: strconv.ParseUint: parsing "x": invalid syntax`},
		{name: "key out of range", in: "\n18446744073709551616\n",
			err: `line 2: strconv.ParseUint: parsing "18446744073709551616": value out of range`},
		{name: "key value line in bare-key mode", in: "1\n2 3\n",
			want: []seq.Record{{Key: 1, Val: 0}},
			err:  `line 2: strconv.ParseUint: parsing "2 3": invalid syntax`},
		{name: "bare key in value mode", in: "1 2\n3\n", withVals: true,
			want: []seq.Record{{Key: 1, Val: 2}},
			err:  `line 2: want "key value"`},
		{name: "bad value", in: "1 -2\n", withVals: true,
			err: `line 1: strconv.ParseUint: parsing "-2": invalid syntax`},
		{name: "line over the cap", in: long,
			want: []seq.Record{{Key: 17, Val: 0}, {Key: 42, Val: 1}},
			err:  "line 3: line exceeds 1048576 bytes"},
	} {
		for _, batch := range []int{1, 2, 1000} {
			got, err := readText(c.in, c.withVals, batch)
			switch {
			case c.err == "" && err != nil:
				t.Errorf("%s (batch %d): unexpected error %v", c.name, batch, err)
			case c.err != "" && (err == nil || err.Error() != c.err):
				t.Errorf("%s (batch %d): error %v, want %q", c.name, batch, err, c.err)
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("%s (batch %d): read %v, want %v", c.name, batch, got, c.want)
			}
		}
	}
}

// TestAppendLine pins both line shapes.
func TestAppendLine(t *testing.T) {
	r := seq.Record{Key: 1<<64 - 1, Val: 0}
	if got := string(AppendLine([]byte("x"), r, false)); got != "x18446744073709551615\n" {
		t.Errorf("bare key: %q", got)
	}
	if got := string(AppendLine(nil, r, true)); got != "18446744073709551615 0\n" {
		t.Errorf("key value: %q", got)
	}
}

// FuzzTextReader throws arbitrary bytes at the text reader in both
// modes: every input either decodes or fails with an error naming a
// line the input has, and decoded records rendered back with
// AppendLine read back as the same records.
func FuzzTextReader(f *testing.F) {
	f.Add([]byte("30\n10\n\n20\n"), false)
	f.Add([]byte("5 7\r\n3 9\n"), true)
	f.Add([]byte("1\n2 3\n"), false)
	f.Add([]byte("18446744073709551616\n"), false)
	f.Add([]byte("\n\n\n"), true)
	f.Add([]byte{}, false)
	lineErr := regexp.MustCompile(`^line ([0-9]+): `)
	f.Fuzz(func(t *testing.T, data []byte, withVals bool) {
		recs, err := readText(string(data), withVals, 7)
		if err != nil {
			m := lineErr.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("error %q does not name a line", err)
			}
			lines := bytes.Count(data, []byte{'\n'}) + 1
			if n, _ := strconv.Atoi(m[1]); n < 1 || n > lines {
				t.Fatalf("error %q names a line outside the input's %d", err, lines)
			}
			return
		}
		var text []byte
		for _, r := range recs {
			text = AppendLine(text, r, withVals)
		}
		back, err := readText(string(text), withVals, 1000)
		if err != nil {
			t.Fatalf("re-rendered records fail to read: %v", err)
		}
		if !slices.Equal(back, recs) {
			t.Fatalf("re-rendered records read back as %v, want %v", back, recs)
		}
	})
}
