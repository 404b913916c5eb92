package serve

import (
	"net/http"
	"net/url"
	"strconv"
	"testing"
	"time"
)

// param is one request parameter: its query name, the header that
// stands in for it, and its value ("" = absent).
type param struct{ query, header, v string }

// paramRequest builds a request carrying every parameter in the query
// or, with inHeader, in its header.
func paramRequest(inHeader bool, ps ...param) *http.Request {
	r := &http.Request{URL: &url.URL{Path: "/v1/sort"}, Header: http.Header{}}
	q := url.Values{}
	for _, p := range ps {
		switch {
		case p.v == "":
		case inHeader:
			r.Header.Set(p.header, p.v)
		default:
			q.Set(p.query, p.v)
		}
	}
	r.URL.RawQuery = q.Encode()
	return r
}

// FuzzAdmissionParams checks the admission class parsed from arbitrary
// priority and deadline values. An accepted bare integer v of
// milliseconds must give deadlineMS == v and a deadline exactly v ms
// after arrival; an accepted Go duration must not be negative. The
// seed 18446744073710 ms overflowed time.Duration when multiplied out
// and used to come back as a 448 µs deadline.
func FuzzAdmissionParams(f *testing.F) {
	for _, d := range []string{"", "0", "750", "750ms", "2s", "-1", "-1s", "1e3",
		"9223372036854", "9223372036855", "18446744073710", "99999999999999999999"} {
		f.Add("", d, false)
		f.Add("3", d, true)
	}
	f.Add("-9", "1h", false)
	f.Add("x", "", true)
	now := time.Unix(1_700_000_000, 0)
	f.Fuzz(func(t *testing.T, prio, deadline string, inHeader bool) {
		r := paramRequest(inHeader,
			param{"priority", "X-Asymsortd-Priority", prio},
			param{"deadline", "X-Asymsortd-Deadline", deadline})
		gotPrio, at, ms, err := admissionParams(r, now)
		if err != nil {
			return
		}
		if want, _ := strconv.Atoi(prio); prio != "" && gotPrio != want {
			t.Fatalf("priority=%q gave %d, want %d", prio, gotPrio, want)
		}
		if deadline == "" {
			if !at.IsZero() || ms != 0 {
				t.Fatalf("no deadline gave %v (%d ms)", at, ms)
			}
			return
		}
		d := at.Sub(now)
		if _, perr := time.ParseDuration(deadline); perr == nil {
			if d < 0 || ms < 0 || ms != d.Milliseconds() {
				t.Fatalf("deadline=%q gave %v after arrival (%d ms)", deadline, d, ms)
			}
			return
		}
		v, perr := strconv.ParseInt(deadline, 10, 64)
		if perr != nil {
			t.Fatalf("deadline=%q accepted, but it is neither a duration nor an integer", deadline)
		}
		if ms != v || d%time.Millisecond != 0 || int64(d/time.Millisecond) != v {
			t.Fatalf("deadline=%q gave %v after arrival (%d ms), want %d ms", deadline, d, ms, v)
		}
	})
}

// FuzzKernelParams checks the kernel parameters parsed from arbitrary
// buckets, k and left values: an accepted value is non-negative and
// equals its decimal parse.
func FuzzKernelParams(f *testing.F) {
	f.Add("64", "10", "", false)
	f.Add("", "0", "500", true)
	f.Add("-1", "+7", "0x10", false)
	f.Add("9223372036854775807", "9223372036854775808", "1e3", true)
	f.Fuzz(func(t *testing.T, buckets, k, left string, inHeader bool) {
		r := paramRequest(inHeader,
			param{"buckets", "X-Asymsortd-Buckets", buckets},
			param{"k", "X-Asymsortd-K", k},
			param{"left", "X-Asymsortd-Left", left})
		p, err := kernelParams(r)
		if err != nil {
			return
		}
		for _, c := range []struct {
			name, v string
			got     int
		}{{"buckets", buckets, p.Buckets}, {"k", k, p.K}, {"left", left, p.LeftN}} {
			if c.v == "" {
				if c.got != 0 {
					t.Fatalf("absent %s gave %d", c.name, c.got)
				}
				continue
			}
			want, perr := strconv.ParseInt(c.v, 10, 64)
			if perr != nil || c.got < 0 || int64(c.got) != want {
				t.Fatalf("%s=%q gave %d (decimal parse %d, %v)", c.name, c.v, c.got, want, perr)
			}
		}
	})
}
