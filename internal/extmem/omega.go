package extmem

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// OmegaMeter is the online ω estimator: an exponentially-weighted
// moving average of the per-block wall cost of block reads and block
// writes, fed by the same charge sites that maintain the IOStats
// ledger (BlockFile.ReadAt/WriteAt). Each transfer is one observation
// at the size the engine issues it — a merge refill of an M/(f+1)
// share, a merge writer's stage of formChunk records — so ω is the
// device's cost ratio at the engine's own transfer sizes. The ratio
// of the two EWMAs is the measured ω — the block-write/block-read
// cost ratio the Appendix A rule consumes — so a daemon can pick k
// per job from the device it is actually running on instead of a
// static flag.
//
// One meter corresponds to one device, keyed by the spill directory
// it measures: all of a serve daemon's engines share the daemon's
// tmpdir, share its meter, and the meter persists its state to a
// small JSON file inside that directory so a restarted daemon warms
// up from the previous run's estimate.
//
// A meter is safe for concurrent use; every engine IO worker feeds it.
type OmegaMeter struct {
	mu sync.Mutex
	// EWMA of wall nanoseconds per device block, one per direction.
	// Zero means no observation yet.
	readNS  float64
	writeNS float64
	// Total blocks observed per direction (confidence weight).
	readBlocks  uint64
	writeBlocks uint64
	path        string // persistence file; "" = in-memory only
}

// omegaHalfLife is the EWMA half-life in observed blocks: an
// observation stream decays the previous estimate to half weight
// every omegaHalfLife blocks, so the estimate tracks device drift on
// the scale of a few jobs while staying stable within one.
const omegaHalfLife = 4096

// omegaMinBlocks is the minimum observed blocks per direction before
// Measured reports an estimate; below it the meter is still cold and
// Effective falls back to the prior.
const omegaMinBlocks = 64

// omegaPriorBlocks is the prior's weight in Effective's blend,
// expressed in observed blocks: once min(readBlocks, writeBlocks)
// reaches omegaPriorBlocks the measurement and the prior weigh
// equally, and beyond it the measurement dominates.
const omegaPriorBlocks = 4096

// Measured ω is clamped to this range: sub-read-cost writes (page
// cache absorbing a burst) still yield a sane k = 1 regime, and a
// pathological stall can never drive the fan-in to the ChooseK scan
// cap on its own.
const (
	omegaClampLo = 0.25
	omegaClampHi = 64
)

// omegaStateName is the persistence file an OmegaMeter keeps inside
// its spill directory.
const omegaStateName = ".asymsort-omega.json"

// omegaState is the on-disk form of a meter.
type omegaState struct {
	ReadNSPerBlock  float64 `json:"read_ns_per_block"`
	WriteNSPerBlock float64 `json:"write_ns_per_block"`
	ReadBlocks      uint64  `json:"read_blocks"`
	WriteBlocks     uint64  `json:"write_blocks"`
}

// OmegaSnapshot is a point-in-time view of a meter for /stats and
// /metrics exports.
type OmegaSnapshot struct {
	// Measured is the clamped write/read cost ratio; 0 while the meter
	// is cold (see Ok).
	Measured float64 `json:"measured"`
	// Ok reports whether both directions have met omegaMinBlocks.
	Ok              bool    `json:"ok"`
	ReadNSPerBlock  float64 `json:"read_ns_per_block"`
	WriteNSPerBlock float64 `json:"write_ns_per_block"`
	ReadBlocks      uint64  `json:"read_blocks"`
	WriteBlocks     uint64  `json:"write_blocks"`
}

// NewOmegaMeter returns a meter persisting to dir (the spill
// directory whose device it measures). State left by a previous run
// is loaded if present and well-formed; a missing or corrupt file
// starts the meter cold. An empty dir yields an in-memory meter.
func NewOmegaMeter(dir string) *OmegaMeter {
	m := &OmegaMeter{}
	if dir == "" {
		return m
	}
	m.path = filepath.Join(dir, omegaStateName)
	raw, err := os.ReadFile(m.path)
	if err != nil {
		return m
	}
	var st omegaState
	if json.Unmarshal(raw, &st) != nil {
		return m
	}
	if st.ReadNSPerBlock > 0 && !math.IsInf(st.ReadNSPerBlock, 0) &&
		st.WriteNSPerBlock > 0 && !math.IsInf(st.WriteNSPerBlock, 0) {
		m.readNS, m.readBlocks = st.ReadNSPerBlock, st.ReadBlocks
		m.writeNS, m.writeBlocks = st.WriteNSPerBlock, st.WriteBlocks
	}
	return m
}

// observe folds one span's (blocks, wall) into the EWMA for one
// direction. Spans with no blocks or an unusable clock reading are
// dropped rather than skewing the estimate.
func observe(ewma *float64, total *uint64, blocks uint64, d time.Duration) {
	if blocks == 0 || d <= 0 {
		return
	}
	sample := float64(d.Nanoseconds()) / float64(blocks)
	if *ewma == 0 {
		*ewma = sample
	} else {
		decay := math.Pow(0.5, float64(blocks)/omegaHalfLife)
		*ewma = *ewma*decay + sample*(1-decay)
	}
	*total += blocks
}

// ObserveRead folds one read span's wall cost into the estimate.
func (m *OmegaMeter) ObserveRead(blocks uint64, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	observe(&m.readNS, &m.readBlocks, blocks, d)
	m.mu.Unlock()
}

// ObserveWrite folds one write span's wall cost into the estimate.
func (m *OmegaMeter) ObserveWrite(blocks uint64, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	observe(&m.writeNS, &m.writeBlocks, blocks, d)
	m.mu.Unlock()
}

// measuredLocked returns the clamped ratio; call with mu held.
func (m *OmegaMeter) measuredLocked() (float64, bool) {
	if m.readBlocks < omegaMinBlocks || m.writeBlocks < omegaMinBlocks ||
		m.readNS <= 0 || m.writeNS <= 0 {
		return 0, false
	}
	w := m.writeNS / m.readNS
	if w < omegaClampLo {
		w = omegaClampLo
	}
	if w > omegaClampHi {
		w = omegaClampHi
	}
	return w, true
}

// Measured returns the current measured ω (clamped to
// [omegaClampLo, omegaClampHi]) and whether the meter has warmed up
// past omegaMinBlocks in both directions.
func (m *OmegaMeter) Measured() (float64, bool) {
	if m == nil {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.measuredLocked()
}

// Effective resolves the ω a job admitted now should be planned with:
// the measurement blended with the configured prior by observation
// confidence. A prior ≤ 0 (or NaN) means "fully measured" — the
// measurement is used alone once warm, and a cold meter falls back to
// ω = 1 (the classical k = 1 regime) until real transfers have been
// observed. With a positive prior a cold meter returns the prior
// unchanged, and a warm one returns
//
//	c·measured + (1−c)·prior,  c = n/(n+omegaPriorBlocks)
//
// where n = min(readBlocks, writeBlocks), so the flag dominates a
// fresh daemon and the device dominates a busy one.
func (m *OmegaMeter) Effective(prior float64) float64 {
	if math.IsNaN(prior) || math.IsInf(prior, 0) || prior < 0 {
		prior = 0
	}
	if m == nil {
		if prior > 0 {
			return prior
		}
		return 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.measuredLocked()
	if !ok {
		if prior > 0 {
			return prior
		}
		return 1
	}
	if prior <= 0 {
		return w
	}
	n := m.readBlocks
	if m.writeBlocks < n {
		n = m.writeBlocks
	}
	c := float64(n) / float64(n+omegaPriorBlocks)
	return c*w + (1-c)*prior
}

// Snapshot freezes the meter for export.
func (m *OmegaMeter) Snapshot() OmegaSnapshot {
	if m == nil {
		return OmegaSnapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.measuredLocked()
	return OmegaSnapshot{
		Measured:        w,
		Ok:              ok,
		ReadNSPerBlock:  m.readNS,
		WriteNSPerBlock: m.writeNS,
		ReadBlocks:      m.readBlocks,
		WriteBlocks:     m.writeBlocks,
	}
}

// Save persists the meter's state next to the spill files it
// measured, atomically (write-then-rename), so a crashed save never
// corrupts a previous state. No-op for in-memory meters.
func (m *OmegaMeter) Save() error {
	if m == nil || m.path == "" {
		return nil
	}
	m.mu.Lock()
	st := omegaState{
		ReadNSPerBlock:  m.readNS,
		WriteNSPerBlock: m.writeNS,
		ReadBlocks:      m.readBlocks,
		WriteBlocks:     m.writeBlocks,
	}
	m.mu.Unlock()
	raw, err := json.Marshal(st)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(m.path), ".asymsort-omega-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), m.path)
}
