package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"asymsort/internal/extmem"
)

// newTuningService is newTestService with a caller-chosen ω prior, for
// the measured-ω differential tests.
func newTuningService(t *testing.T, mem, block int, omega float64) *testService {
	t.Helper()
	b, err := NewBroker(BrokerConfig{Mem: mem, Procs: 2, MinLease: 16 * block})
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	srv, err := NewServer(ServerConfig{Broker: b, Block: block, Omega: omega, TmpDir: tmp})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testService{b: b, srv: srv, ts: ts, tmp: tmp}
}

// TestServeMeasuredOmegaDifferential is the tentpole's acceptance
// check: for each ω prior (0 = fully measured, 4, 16), prime the live
// meter, run an ext job, and verify the job's recorded ω equals the
// meter's Effective(prior) at admission, the per-job fan-in equals
// ChooseK on exactly that ω and the job's grant, and the measured
// write ledger still equals the simulated plan level for level.
func TestServeMeasuredOmegaDifferential(t *testing.T) {
	const block = 64
	for _, prior := range []float64{0, 4, 16} {
		s := newTuningService(t, 1<<14, block, prior)
		// Warm the estimator to ω ≈ 8: writes cost 8× reads per block.
		meter := s.srv.Meter()
		meter.ObserveRead(1<<16, time.Duration(100*(1<<16)))
		meter.ObserveWrite(1<<16, time.Duration(800*(1<<16)))
		expected := meter.Effective(prior)
		if math.IsNaN(expected) || expected <= 0 {
			t.Fatalf("prior %v: Effective = %v", prior, expected)
		}

		keys := genKeys(60000, 7) // 120000 resident needed → ext
		code, body, hdr := s.postSort(t, context.Background(), "", keysText(keys))
		if code != http.StatusOK {
			t.Fatalf("prior %v: status %d: %s", prior, code, body)
		}
		if hdr.Get("X-Asymsortd-Model") != "ext" {
			t.Fatalf("prior %v: model %q, want ext", prior, hdr.Get("X-Asymsortd-Model"))
		}
		if body != sortedText(keys) {
			t.Fatalf("prior %v: response is not the sorted key text", prior)
		}

		snap := s.stats(t)
		if len(snap.Jobs) != 1 {
			t.Fatalf("prior %v: jobs: %+v", prior, snap.Jobs)
		}
		j := snap.Jobs[0]
		// The job's ω is the admission-time blend — the job's own IO
		// feeds the meter afterwards, so compare against the value
		// captured before the POST, not the post-run Effective.
		if math.Abs(j.Omega-expected) > 1e-9 {
			t.Errorf("prior %v: job omega %v, want Effective(prior) = %v", prior, j.Omega, expected)
		}
		wantK := extmem.ChooseK(j.Omega, j.MemGrant, block)
		if j.K != wantK {
			t.Errorf("prior %v: job k = %d, want ChooseK(%v, %d, %d) = %d",
				prior, j.K, j.Omega, j.MemGrant, block, wantK)
		}
		if j.Writes == 0 || j.Writes != j.PlanWrites {
			t.Errorf("prior %v: ledger: writes %d, plan %d", prior, j.Writes, j.PlanWrites)
		}
		// /stats tuning section reflects the warm estimator.
		tn := snap.Tuning
		if !tn.MeasuredOK || tn.OmegaMeasured <= 0 {
			t.Errorf("prior %v: tuning not warm: %+v", prior, tn)
		}
		if tn.OmegaPrior != prior {
			t.Errorf("prior %v: tuning prior %v", prior, tn.OmegaPrior)
		}
		if tn.OmegaEffective <= 0 {
			t.Errorf("prior %v: tuning effective %v", prior, tn.OmegaEffective)
		}
		if tn.ReadBlocks == 0 || tn.WriteBlocks == 0 {
			t.Errorf("prior %v: tuning block counts: %+v", prior, tn)
		}
	}
}

// TestServeColdMeterFallsBackToPrior: with nothing measured yet, jobs
// run on the configured prior verbatim (and on the classical ω = 1
// when no prior is set at all).
func TestServeColdMeterFallsBackToPrior(t *testing.T) {
	for _, tc := range []struct {
		prior, want float64
	}{{4, 4}, {0, 1}} {
		s := newTuningService(t, 1<<14, 64, tc.prior)
		keys := genKeys(40000, 11)
		code, body, _ := s.postSort(t, context.Background(), "", keysText(keys))
		if code != http.StatusOK {
			t.Fatalf("prior %v: status %d: %s", tc.prior, code, body)
		}
		snap := s.stats(t)
		if len(snap.Jobs) != 1 {
			t.Fatalf("prior %v: jobs: %+v", tc.prior, snap.Jobs)
		}
		if got := snap.Jobs[0].Omega; got != tc.want {
			t.Errorf("prior %v: cold job omega %v, want %v", tc.prior, got, tc.want)
		}
	}
}
