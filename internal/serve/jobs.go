package serve

import (
	"slices"
	"sync"
	"time"
)

// Job is the header of a job record on /stats. The engine's JobStats and
// the coordinator's embed it, and Jobs keeps either kind.
type Job struct {
	ID      int    `json:"id"`
	State   string `json:"state"` // "staging" when opened; done|failed|canceled when closed
	TotalMS int64  `json:"total_ms"`
	Err     string `json:"err,omitempty"`

	opened time.Time // when Open filed the job; TotalMS runs from here
}

// Live reports whether the job has not finished: every state except
// done, failed and canceled is live.
func (j *Job) Live() bool {
	switch j.State {
	case "done", "failed", "canceled":
		return false
	}
	return true
}

func (j *Job) header() *Job { return j }

// jobRecord is a pointer to a record type that embeds Job.
type jobRecord[T any] interface {
	*T
	header() *Job
}

// maxRetainedJobs bounds the /stats history of a daemon that serves
// unbounded traffic.
const maxRetainedJobs = 4096

// Jobs is a job table over records of type T, which embed Job (P is
// *T). It assigns ids, keeps at most maxRetainedJobs jobs by evicting
// the oldest finished one first (live jobs are never evicted, so only
// they can push it past the cap), and holds the lock that a job's steps
// write its record under. Update, Close and List run their callbacks
// under that lock, so a callback must not block or call the table. The
// zero value is an empty table.
type Jobs[T any, P jobRecord[T]] struct {
	mu   sync.Mutex
	jobs []P // in id order, which is creation order
	next int
}

// Open files rec as a new job in state "staging" and returns the record
// the table keeps, with its id assigned.
func (t *Jobs[T, P]) Open(rec T) P {
	j := P(&rec)
	t.mu.Lock()
	defer t.mu.Unlock()
	h := j.header()
	h.ID, h.State, h.opened = t.next, "staging", time.Now()
	t.next++
	t.jobs = append(t.jobs, j)
	for i := 0; len(t.jobs) > maxRetainedJobs && i < len(t.jobs); {
		if t.jobs[i].header().Live() {
			i++
			continue
		}
		t.jobs = slices.Delete(t.jobs, i, i+1)
	}
	return j
}

// Update runs f on the job's record under the table's lock.
func (t *Jobs[T, P]) Update(j P, f func(P)) {
	t.mu.Lock()
	f(j)
	t.mu.Unlock()
}

// Close ends the job: "done" on a nil error, otherwise "failed" unless a
// step already set "canceled", with the error kept in Err. TotalMS is the
// wall since Open. fold, when non-nil, then runs on the closed record, so
// whatever it folds the job into changes at the same instant as the
// job's state. Close returns a copy of the closed record.
func (t *Jobs[T, P]) Close(j P, err error, fold func(P)) T {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := j.header()
	h.TotalMS = time.Since(h.opened).Milliseconds()
	switch {
	case err == nil:
		h.State = "done"
	case h.State != "canceled":
		h.State = "failed"
	}
	if err != nil {
		h.Err = err.Error()
	}
	if fold != nil {
		fold(j)
	}
	return *j
}

// List returns copies of the retained jobs in id order. hook, when
// non-nil, runs on the copies before they are returned: it may edit
// them, and whatever it reads that Close's fold writes is from the same
// instant as the copies.
func (t *Jobs[T, P]) List(hook func([]T)) []T {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]T, len(t.jobs))
	for i, j := range t.jobs {
		out[i] = *j
	}
	if hook != nil {
		hook(out)
	}
	return out
}
