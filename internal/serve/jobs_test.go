package serve

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestJobTable: the job table that the engine and the coordinator share
// keeps at most maxRetainedJobs jobs, evicting the oldest finished job
// first and never a live one; closes every job by one rule; and lists
// copies in id order that its hook may edit without touching the table.
func TestJobTable(t *testing.T) {
	t.Run("retention", func(t *testing.T) {
		var tab Jobs[JobStats, *JobStats]
		first := tab.Open(JobStats{Kernel: "sort"}) // stays "staging"
		var mid *JobStats
		for i := 0; i < maxRetainedJobs+50; i++ {
			j := tab.Open(JobStats{})
			if i == 10 {
				mid = j // live too
				continue
			}
			tab.Close(j, nil, nil)
		}
		jobs := tab.List(nil)
		if len(jobs) != maxRetainedJobs {
			t.Fatalf("%d jobs retained, cap is %d", len(jobs), maxRetainedJobs)
		}
		if jobs[0].ID != first.ID || jobs[1].ID != mid.ID || !jobs[0].Live() || !jobs[1].Live() {
			t.Fatalf("live jobs %d and %d not kept: table starts %d, %d", first.ID, mid.ID, jobs[0].ID, jobs[1].ID)
		}
		// The finished survivors are the newest ones, so the table reads
		// the two live jobs, then a run of consecutive ids to the last.
		last := jobs[len(jobs)-1].ID
		for i, j := range jobs[2:] {
			if want := last - (len(jobs) - 3) + i; j.ID != want || j.Live() {
				t.Fatalf("jobs[%d] is %d (%s), want finished job %d", i+2, j.ID, j.State, want)
			}
		}
	})

	t.Run("close", func(t *testing.T) {
		var tab Jobs[JobStats, *JobStats]
		boom := errors.New("boom")
		done, failed, canceled := tab.Open(JobStats{}), tab.Open(JobStats{}), tab.Open(JobStats{})
		tab.Update(canceled, func(j *JobStats) { j.State = "canceled" })
		time.Sleep(5 * time.Millisecond)
		var folded string
		got := tab.Close(done, nil, func(j *JobStats) { folded = j.State })
		if got.State != "done" || got.Err != "" || folded != "done" || got.TotalMS < 5 {
			t.Errorf("nil error: %+v, fold saw %q; want done, no err, total_ms >= 5", got.Job, folded)
		}
		if got := tab.Close(failed, boom, nil); got.State != "failed" || got.Err != "boom" {
			t.Errorf("error: %+v, want failed with err boom", got.Job)
		}
		if got := tab.Close(canceled, boom, nil); got.State != "canceled" || got.Err != "boom" {
			t.Errorf("error after cancel: %+v, want canceled with err boom", got.Job)
		}
	})

	t.Run("list", func(t *testing.T) {
		var tab Jobs[JobStats, *JobStats]
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					j := tab.Open(JobStats{Kernel: "sort"})
					tab.Update(j, func(j *JobStats) { j.N = i })
					tab.Close(j, nil, nil)
				}
			}()
		}
		for i := 0; i < 20; i++ {
			tab.List(nil)
		}
		wg.Wait()
		edited := tab.List(func(jobs []JobStats) {
			for i := range jobs {
				jobs[i].State, jobs[i].Kernel = "edited", "edited"
			}
		})
		jobs := tab.List(nil)
		if len(jobs) != 400 || len(edited) != 400 {
			t.Fatalf("listed %d and %d jobs, want 400", len(jobs), len(edited))
		}
		for i, j := range jobs {
			if j.ID != i {
				t.Fatalf("jobs[%d] has id %d: not in id order", i, j.ID)
			}
			if j.State != "done" || j.Kernel != "sort" || edited[i].State != "edited" {
				t.Fatalf("job %d reads %s/%s after the hook edited its copy to %s", j.ID, j.State, j.Kernel, edited[i].State)
			}
		}
	})
}
