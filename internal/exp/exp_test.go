package exp

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// Every experiment must run in quick mode without panicking and without
// reporting a shape mismatch — this is the executable summary of the
// whole reproduction.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	cfg := Config{Quick: true, Seed: 1}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			e.Run(&buf, cfg)
			out := buf.String()
			if strings.Contains(out, "SHAPE MISMATCH") {
				t.Errorf("%s reported a shape mismatch:\n%s", e.ID, out)
			}
			if !strings.Contains(out, e.ID) {
				t.Errorf("%s output missing its banner", e.ID)
			}
		})
	}
}

// The wall-clock tables outside the registry must run too. Each panics
// on a wrong answer (and ext on a P = 2 ledger mismatch); an early
// error return prints no verdict, so the verdict must be there and OK.
func TestBenchTablesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	cfg := Config{Quick: true, Seed: 1}
	for _, b := range []struct {
		name string
		run  func(io.Writer, Config, int)
	}{{"ext", ExtBench}, {"kernels", KernelsBench}, {"native", NativeBench}} {
		t.Run(b.name, func(t *testing.T) {
			var buf bytes.Buffer
			b.run(&buf, cfg, 2)
			out := buf.String()
			if strings.Contains(out, "SHAPE MISMATCH") || !strings.Contains(out, "SHAPE OK") {
				t.Errorf("%s table has no OK verdict:\n%s", b.name, out)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("e4"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := Lookup("E99"); ok {
		t.Error("bogus ID found")
	}
}

func TestCSVMode(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Lookup("E7")
	e.Run(&buf, Config{Quick: true, Seed: 1, CSV: true})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("CSV output too short: %q", buf.String())
	}
	header := lines[1] // after the "# E7 …" comment
	if !strings.Contains(header, ",") {
		t.Errorf("expected comma-separated header, got %q", header)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := newTable("a", "b")
	tb.add("x", 1)
	tb.add(2.5, uint64(7))
	var buf bytes.Buffer
	tb.write(&buf, Config{})
	out := buf.String()
	if !strings.Contains(out, "2.500") || !strings.Contains(out, "x") {
		t.Errorf("table output wrong: %q", out)
	}
}

func TestGeoMeanGrowth(t *testing.T) {
	if g := geoMeanGrowth([]float64{2, 4}); g != 2 {
		t.Errorf("growth = %v", g)
	}
	if g := geoMeanGrowth([]float64{5}); g != 1 {
		t.Errorf("single-element growth = %v", g)
	}
	if g := geoMeanGrowth(nil); g != 1 {
		t.Errorf("empty growth = %v", g)
	}
}
