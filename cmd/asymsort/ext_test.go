package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"asymsort/internal/seq"
	"asymsort/internal/wire"
)

// extCase is one -model ext input: the file run reads ("-" reads
// stdin, "" generates -n records), and the records it must stage.
type extCase struct {
	name  string
	wire  string
	in    string
	stdin []byte
	n     int
	want  []seq.Record
}

// runExtCase runs a sort of c under -model ext with a small budget
// (several runs and merge levels) and returns the -out bytes, the
// report, and run's error. With out "-" the records come back on
// stdout and the report on stderr. It fails the test if the spill
// directory is not left empty.
func runExtCase(t *testing.T, c extCase, out string) (got []byte, report string, err error) {
	t.Helper()
	dir := t.TempDir()
	tmpdir := filepath.Join(dir, "spill")
	if out == "" {
		out = filepath.Join(dir, "out")
	}
	args := []string{"-model", "ext", "-mem", "8KB", "-b", "16", "-omega", "8", "-fanin", "4",
		"-tmpdir", tmpdir, "-seed", "7", "-procs", "2", "-out", out}
	if c.wire != "" {
		args = append(args, "-wire", c.wire)
	}
	if c.in != "" {
		args = append(args, "-in", c.in)
	} else {
		args = append(args, "-n", strconv.Itoa(c.n))
	}
	stdout, stderr, err := cli(c.stdin, args...)
	left, rerr := os.ReadDir(tmpdir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range left {
		t.Errorf("%s: %s left in the spill directory", c.name, e.Name())
	}
	if out == "-" {
		return []byte(stdout), stderr, err
	}
	if stderr != "" {
		t.Errorf("%s: run wrote to stderr: %q", c.name, stderr)
	}
	if err != nil {
		return nil, stdout, err
	}
	if got, err = os.ReadFile(out); err != nil {
		t.Fatal(err)
	}
	return got, stdout, nil
}

// textKeys renders recs' keys one per line.
func textKeys(recs []seq.Record) []byte {
	var b bytes.Buffer
	for _, r := range recs {
		b.WriteString(strconv.FormatUint(r.Key, 10) + "\n")
	}
	return b.Bytes()
}

// chunkedFrame encodes recs as a chunked frame of several chunks.
func chunkedFrame(t *testing.T, recs []seq.Record) []byte {
	var b bytes.Buffer
	fw, err := wire.NewWriter(&b, int64(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	for rest := recs; len(rest) > 0; {
		m := min(len(rest), 700)
		if err := fw.WriteRecords(rest[:m]); err != nil {
			t.Fatal(err)
		}
		rest = rest[m:]
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// contiguousFrame encodes recs as a contiguous frame announcing count.
func contiguousFrame(t *testing.T, recs []seq.Record, count int) []byte {
	var b bytes.Buffer
	if err := wire.WriteContiguousHeader(&b, int64(count)); err != nil {
		t.Fatal(err)
	}
	b.Write(seq.Encoded(recs))
	return b.Bytes()
}

// TestExtInputs runs the ext model on every kind of input it accepts.
// Each output must be the input's records sorted — in order, and with
// the input's multiset, which is what the record checksum checks — the
// spill directory must be left empty, and the report must keep the
// lines scripts grep. With -out - the output comes back on stdout
// alone, byte for byte, and the report goes to stderr.
func TestExtInputs(t *testing.T) {
	const n = 3000
	recs := seq.Uniform(n, 11)
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Text with blank lines (not numbered) and duplicate keys.
	dupText := []byte("5\n\n3\n5\n\n\n0\n3\n18446744073709551615\n5\n")
	dupRecs := []seq.Record{{Key: 5, Val: 0}, {Key: 3, Val: 1}, {Key: 5, Val: 2},
		{Key: 0, Val: 3}, {Key: 3, Val: 4}, {Key: 1<<64 - 1, Val: 5}, {Key: 5, Val: 6}}
	// A frame's payloads are the client's own, in any order.
	framed := slices.Clone(recs)
	for i := range framed {
		framed[i].Val = uint64(n - i)
	}
	cases := []extCase{
		{name: "text file", in: write("keys.txt", textKeys(recs)), want: recs},
		{name: "text stdin", in: "-", stdin: textKeys(recs), want: recs},
		{name: "text blanks and duplicates", in: write("dups.txt", dupText), want: dupRecs},
		{name: "generated", n: n, want: seq.Uniform(n, 7)},
		{name: "chunked frame file", wire: "binary", in: write("chunked.asrf", chunkedFrame(t, framed)), want: framed},
		{name: "chunked frame stdin", wire: "binary", in: "-", stdin: chunkedFrame(t, framed), want: framed},
		{name: "contiguous frame in place", wire: "binary", in: write("contig.asrf", contiguousFrame(t, framed, n)), want: framed},
		{name: "contiguous frame stdin", wire: "binary", in: "-", stdin: contiguousFrame(t, framed, n), want: framed},
		{name: "empty text", in: write("empty.txt", nil), want: nil},
		{name: "empty frame", wire: "binary", in: write("empty.asrf", contiguousFrame(t, nil, 0)), want: nil},
	}
	ledger := regexp.MustCompile(`(?m)reads, \d+ writes`)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := slices.Clone(c.want)
			slices.SortFunc(want, seq.TotalCompare)
			wantOut := textKeys(want)
			if c.wire == "binary" {
				// -out is a contiguous frame of the sorted records.
				wantOut = contiguousFrame(t, want, len(want))
			}
			for _, out := range []string{"", "-"} {
				got, report, err := runExtCase(t, c, out)
				if err != nil {
					t.Fatalf("-out %q: run: %v", out, err)
				}
				if !strings.Contains(report, "sort wall: ") || !ledger.MatchString(report) {
					t.Errorf("-out %q: the report lacks the sort wall or ledger line:\n%s", out, report)
				}
				if !bytes.Equal(got, wantOut) {
					t.Fatalf("-out %q: %d bytes that are not the sorted input in the %q dialect", out, len(got), c.wire)
				}
			}
		})
	}
}

// TestExtTruncatedFrame: a contiguous frame whose payload is shorter
// than its header announces is an error, whether it is handed over in
// place or read from stdin.
func TestExtTruncatedFrame(t *testing.T) {
	recs := seq.Uniform(500, 3)
	short := contiguousFrame(t, recs[:499], len(recs))
	path := filepath.Join(t.TempDir(), "short.asrf")
	if err := os.WriteFile(path, short, 0o666); err != nil {
		t.Fatal(err)
	}
	for _, c := range []extCase{
		{name: "file", wire: "binary", in: path},
		{name: "stdin", wire: "binary", in: "-", stdin: short},
	} {
		if _, _, err := runExtCase(t, c, ""); err == nil {
			t.Errorf("%s: a truncated contiguous frame sorted without error", c.name)
		}
	}
}
