package extmem

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"asymsort/internal/seq"
)

// TestChooseKDegenerate pins ChooseK's answer on every degenerate
// input class: it must always return k ≥ 1 and never divide by
// lg(M/B) = 0. ChooseK is exported and callable directly, so these
// hold without the config-resolution guards.
func TestChooseKDegenerate(t *testing.T) {
	cases := []struct {
		name  string
		omega float64
		mem   int
		block int
		want  int
	}{
		{"mem equals block", 4, 64, 64, 1},
		{"mem below block", 4, 32, 64, 1},
		{"zero mem", 4, 0, 64, 1},
		{"negative mem", 4, -64, 64, 1},
		{"zero block", 4, 64, 0, 1},
		{"negative block", 4, 64, -8, 1},
		{"zero omega", 0, 1 << 20, 64, 1},
		{"negative omega", -3, 1 << 20, 64, 1},
		{"nan omega", math.NaN(), 1 << 20, 64, 1},
		{"omega one tight ratio", 1, 128, 64, 1},
		{"positive inf omega", math.Inf(1), 1 << 20, 64, 512},
		{"negative inf omega", math.Inf(-1), 1 << 20, 64, 1},
	}
	for _, tc := range cases {
		if got := ChooseK(tc.omega, tc.mem, tc.block); got != tc.want {
			t.Errorf("%s: ChooseK(%v, %d, %d) = %d, want %d",
				tc.name, tc.omega, tc.mem, tc.block, got, tc.want)
		}
	}
	// Exhaustive floor: no (ω, M/B) combination may yield k < 1.
	omegas := []float64{math.NaN(), math.Inf(-1), -1, 0, 0.5, 1, 2, 8, 64, math.Inf(1)}
	for _, w := range omegas {
		for _, mb := range [][2]int{{0, 0}, {1, 1}, {1, 0}, {64, 64}, {65, 64}, {1 << 20, 64}, {1 << 20, 1}} {
			if got := ChooseK(w, mb[0], mb[1]); got < 1 {
				t.Fatalf("ChooseK(%v, %d, %d) = %d < 1", w, mb[0], mb[1], got)
			}
		}
	}
}

// TestResolveDegenerateOmega pins the config-resolution guards: NaN
// and non-positive ω resolve to 1 and +Inf clamps finite, so no
// degenerate flag value can reach ChooseK, the fan-in derivation, or
// Report.Cost.
func TestResolveDegenerateOmega(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(-1), -2, 0} {
		r, err := Config{Mem: 1 << 16, Block: 64, Omega: w}.resolve()
		if err != nil {
			t.Fatalf("resolve(omega=%v): %v", w, err)
		}
		if r.omega != 1 {
			t.Errorf("resolve(omega=%v): omega = %v, want 1", w, r.omega)
		}
		if r.k < 1 {
			t.Errorf("resolve(omega=%v): k = %d < 1", w, r.k)
		}
	}
	r, err := Config{Mem: 1 << 16, Block: 64, Omega: math.Inf(1)}.resolve()
	if err != nil {
		t.Fatalf("resolve(omega=+Inf): %v", err)
	}
	if math.IsInf(r.omega, 0) || math.IsNaN(r.omega) || r.omega <= 0 {
		t.Errorf("resolve(omega=+Inf): omega = %v, want finite positive", r.omega)
	}
	if r.k != 512 {
		t.Errorf("resolve(omega=+Inf): k = %d, want the scan cap 512", r.k)
	}
}

// prime feeds a meter until it is warm, with write spans costing
// ratio× their read counterparts per block.
func prime(m *OmegaMeter, blocks uint64, readNS, writeNS float64) {
	m.ObserveRead(blocks, time.Duration(readNS*float64(blocks)))
	m.ObserveWrite(blocks, time.Duration(writeNS*float64(blocks)))
}

func TestOmegaMeterMeasuredAndEffective(t *testing.T) {
	m := NewOmegaMeter("")
	if _, ok := m.Measured(); ok {
		t.Fatal("cold meter reports a measurement")
	}
	// Cold: prior wins; no prior falls back to the classical ω = 1.
	if got := m.Effective(4); got != 4 {
		t.Fatalf("cold Effective(4) = %v, want 4", got)
	}
	if got := m.Effective(0); got != 1 {
		t.Fatalf("cold Effective(0) = %v, want 1", got)
	}
	prime(m, 1<<16, 100, 800) // ω = 8, well past warm-up
	w, ok := m.Measured()
	if !ok {
		t.Fatal("primed meter still cold")
	}
	if math.Abs(w-8) > 0.01 {
		t.Fatalf("Measured = %v, want ≈ 8", w)
	}
	// Fully measured: the prior is ignored.
	if got := m.Effective(0); math.Abs(got-w) > 1e-9 {
		t.Fatalf("Effective(0) = %v, want measured %v", got, w)
	}
	// Blended: strictly between prior and measurement, near the
	// measurement at 64Ki observed blocks vs the 4Ki prior weight.
	got := m.Effective(2)
	if got <= 2 || got >= w {
		t.Fatalf("Effective(2) = %v, want in (2, %v)", got, w)
	}
	if got < 7 {
		t.Fatalf("Effective(2) = %v: measurement should dominate at this confidence", got)
	}
	// Degenerate priors behave like "fully measured".
	for _, p := range []float64{math.NaN(), math.Inf(1), -1} {
		if got := m.Effective(p); math.Abs(got-w) > 1e-9 {
			t.Fatalf("Effective(%v) = %v, want measured %v", p, got, w)
		}
	}
}

func TestOmegaMeterClampAndJunkObservations(t *testing.T) {
	m := NewOmegaMeter("")
	// Zero-block and non-positive-duration spans must not count.
	m.ObserveRead(0, time.Second)
	m.ObserveWrite(128, 0)
	m.ObserveWrite(128, -time.Second)
	if s := m.Snapshot(); s.ReadBlocks != 0 || s.WriteBlocks != 0 {
		t.Fatalf("junk observations counted: %+v", s)
	}
	// A pathological ratio clamps into [omegaClampLo, omegaClampHi].
	prime(m, 1<<12, 1, 100000)
	if w, _ := m.Measured(); w != omegaClampHi {
		t.Fatalf("Measured = %v, want clamp %v", w, omegaClampHi)
	}
	m2 := NewOmegaMeter("")
	prime(m2, 1<<12, 100000, 1)
	if w, _ := m2.Measured(); w != omegaClampLo {
		t.Fatalf("Measured = %v, want clamp %v", w, omegaClampLo)
	}
	// Nil meters are inert everywhere.
	var nilM *OmegaMeter
	nilM.ObserveRead(1, time.Second)
	nilM.ObserveWrite(1, time.Second)
	if _, ok := nilM.Measured(); ok {
		t.Fatal("nil meter measured")
	}
	if got := nilM.Effective(4); got != 4 {
		t.Fatalf("nil Effective(4) = %v", got)
	}
	if err := nilM.Save(); err != nil {
		t.Fatalf("nil Save: %v", err)
	}
}

func TestOmegaMeterPersistence(t *testing.T) {
	dir := t.TempDir()
	m := NewOmegaMeter(dir)
	prime(m, 1<<14, 200, 3200) // ω = 16
	if err := m.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	m2 := NewOmegaMeter(dir)
	w, ok := m2.Measured()
	if !ok {
		t.Fatal("reloaded meter cold")
	}
	if math.Abs(w-16) > 0.01 {
		t.Fatalf("reloaded Measured = %v, want ≈ 16", w)
	}
	s := m2.Snapshot()
	if s.ReadBlocks != 1<<14 || s.WriteBlocks != 1<<14 {
		t.Fatalf("reloaded block counts: %+v", s)
	}
	// A corrupt state file starts cold instead of failing.
	if err := os.WriteFile(filepath.Join(dir, omegaStateName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := NewOmegaMeter(dir).Measured(); ok {
		t.Fatal("corrupt state produced a warm meter")
	}
}

// TestSortFeedsMeter runs real sorts — sequential and parallel (the
// merge workers' synchronous writes), both refilling from mapped spill
// files — with a meter wired and checks the meter warms up while the
// write ledger still equals the plan.
func TestSortFeedsMeter(t *testing.T) {
	for _, procs := range []int{1, 4} {
		dir := t.TempDir()
		meter := NewOmegaMeter(dir)
		n := 1 << 15
		recs := make([]seq.Record, n)
		rng := uint64(1)
		for i := range recs {
			rng = rng*6364136223846793005 + 1442695040888963407
			recs[i] = seq.Record{Key: rng, Val: uint64(i)}
		}
		in := filepath.Join(dir, "in.rec")
		if err := WriteRecordsFile(in, recs); err != nil {
			t.Fatal(err)
		}
		rep, err := Sort(Config{
			Mem: 1 << 12, Block: 1 << 7, K: 2, TmpDir: dir,
			Procs: procs, Meter: meter,
		}, in, filepath.Join(dir, "out.rec"))
		if err != nil {
			t.Fatalf("procs=%d: Sort: %v", procs, err)
		}
		if rep.Total.Writes != rep.PlanWrites {
			t.Fatalf("procs=%d: metered sort broke the ledger identity: writes %d != plan %d",
				procs, rep.Total.Writes, rep.PlanWrites)
		}
		s := meter.Snapshot()
		// Spans whose wall cost measures as zero are dropped by the
		// meter, so compare against half the ledger rather than exact
		// equality.
		if s.ReadBlocks < rep.Total.Reads/2 || s.WriteBlocks < rep.Total.Writes/2 {
			t.Fatalf("procs=%d: meter observed (%d r, %d w) blocks, ledger charged (%d, %d)",
				procs, s.ReadBlocks, s.WriteBlocks, rep.Total.Reads, rep.Total.Writes)
		}
		if s.ReadNSPerBlock <= 0 || s.WriteNSPerBlock <= 0 {
			t.Fatalf("procs=%d: meter has no cost estimate: %+v", procs, s)
		}
	}
}

// TestIOStatsCreditsUntimedRefills feeds an IOStats untimed and timed
// mapped refills in mixed order, plus preads. A timed refill must
// credit the blocks left pending before it at its own per-block cost,
// a pread only its own blocks, so the meter's read blocks plus the
// blocks still pending always equal the ledger's reads; settling then
// credits the rest.
func TestIOStatsCreditsUntimedRefills(t *testing.T) {
	s := &IOStats{meter: NewOmegaMeter("")}
	const perBlock = time.Second
	charges := []struct {
		blocks        uint64
		timed, mapped bool
		meter         uint64 // the meter's read blocks after the charge
	}{
		{2, false, true, 0},
		{1, false, true, 0},
		{3, true, true, 6}, // credits the 3 pending blocks
		{2, true, false, 8},
		{1, false, true, 8},
		{2, false, true, 8},
		{2, true, false, 10}, // a pread leaves the 3 pending blocks alone
		{1, true, true, 14},
		{4, false, true, 14}, // still pending at the end
	}
	var ledger uint64
	for i, c := range charges {
		var start time.Time
		if c.timed {
			start = time.Now().Add(-time.Duration(c.blocks) * perBlock)
		}
		s.chargeRead(c.blocks, start, c.mapped)
		ledger += c.blocks
		snap := s.meter.Snapshot()
		if snap.ReadBlocks != c.meter || s.reads.Load() != ledger ||
			snap.ReadBlocks+s.untimed.Load() != ledger {
			t.Fatalf("charge %d: meter %d + pending %d read blocks, ledger %d (want meter %d, ledger %d)",
				i, snap.ReadBlocks, s.untimed.Load(), s.reads.Load(), c.meter, ledger)
		}
	}
	// Every timed span cost one second per block (plus the moments
	// between taking start and charging), so crediting the pending
	// blocks at any other per-block cost — say their span's wall spread
	// over all the blocks, half a second each at charge 2 — would pull
	// the EWMA away.
	ns := s.meter.Snapshot().ReadNSPerBlock
	if ns < float64(perBlock) || ns > 1.1*float64(perBlock) {
		t.Fatalf("meter reads %.0f ns/block, want the timed spans' %d", ns, perBlock)
	}
	// Settling credits the blocks still pending without moving the
	// estimate.
	s.settle()
	snap := s.meter.Snapshot()
	if snap.ReadBlocks != ledger || s.untimed.Load() != 0 || math.Abs(snap.ReadNSPerBlock-ns) > 1 {
		t.Fatalf("settled meter: %d read blocks at %.0f ns/block, %d pending; want %d at %.0f, 0 pending",
			snap.ReadBlocks, snap.ReadNSPerBlock, s.untimed.Load(), ledger, ns)
	}
}

// TestIOStatsClockSampling checks who reads the clock: nobody without
// a meter, every pread and write with one, and mapped refills at
// random about once in refillSample.
func TestIOStatsClockSampling(t *testing.T) {
	for _, s := range []*IOStats{nil, {}} {
		if !s.clock(false).IsZero() || !s.clock(true).IsZero() {
			t.Fatalf("IOStats %v without a meter read the clock", s)
		}
	}
	s := &IOStats{meter: NewOmegaMeter("")}
	const draws = 1000 * refillSample
	timed := 0
	for range draws {
		if s.clock(false).IsZero() {
			t.Fatal("a metered pread or write went untimed")
		}
		if !s.clock(true).IsZero() {
			timed++
		}
	}
	// Binomial(64 000, 1/64): mean 1 000, standard deviation about 31.
	if timed < 800 || timed > 1200 {
		t.Fatalf("%d of %d mapped refills timed, want about %d", timed, draws, draws/refillSample)
	}
}
