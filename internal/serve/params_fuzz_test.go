package serve

import (
	"cmp"
	"net/http"
	"net/url"
	"strconv"
	"testing"
	"time"
)

// param is one request parameter: its query name, the header that
// stands in for it ("" = none), and its value ("" = absent).
type param struct{ query, header, v string }

// paramRequest builds a request carrying every parameter in the query
// or, with inHeader, in its header where it has one.
func paramRequest(inHeader bool, ps ...param) *http.Request {
	r := &http.Request{URL: &url.URL{Path: "/v1/sort"}, Header: http.Header{}}
	q := url.Values{}
	for _, p := range ps {
		switch {
		case p.v == "":
		case inHeader && p.header != "":
			r.Header.Set(p.header, p.v)
		default:
			q.Set(p.query, p.v)
		}
	}
	r.URL.RawQuery = q.Encode()
	return r
}

// FuzzJobQuery checks the job query parsed from arbitrary model, mem,
// priority and deadline values. An accepted model is one of the three
// names, and an accepted mem or priority equals its decimal parse. An
// accepted bare integer deadline v of milliseconds must give a
// Deadline of exactly v ms; an accepted Go duration must not be
// negative, and no deadline must give none. The seed
// 18446744073710 ms overflowed time.Duration when multiplied out and
// used to come back as a 448 µs deadline. Finally, the query a
// coordinator relays (Forward) must parse back to the same JobQuery,
// so a worker accepts exactly what its coordinator accepted.
func FuzzJobQuery(f *testing.F) {
	for _, d := range []string{"", "0", "750", "750ms", "2s", "-1", "-1s", "1e3",
		"9223372036854", "9223372036855", "18446744073710", "99999999999999999999"} {
		f.Add("", "", "", d, false)
		f.Add("", "", "3", d, true)
	}
	f.Add("", "", "-9", "1h", false)
	f.Add("", "", "x", "", true)
	for _, m := range []string{"auto", "ext", "native", "quantum", "EXT"} {
		f.Add(m, "", "", "", false)
	}
	for _, m := range []string{"1", "65536", "0", "-4", "+7", "1e3", "9223372036854775808"} {
		f.Add("ext", m, "2", "750ms", true)
	}
	f.Fuzz(func(t *testing.T, model, mem, prio, deadline string, inHeader bool) {
		r := paramRequest(inHeader,
			param{"model", "", model},
			param{"mem", "", mem},
			param{"priority", "X-Asymsortd-Priority", prio},
			param{"deadline", "X-Asymsortd-Deadline", deadline})
		q, err := ParseJobQuery(r)
		if err != nil {
			return
		}
		fwd := paramRequest(false)
		fwd.URL.RawQuery = q.Forward()
		if q2, err := ParseJobQuery(fwd); err != nil || q2 != q {
			t.Fatalf("forwarded query %q parsed to %+v (%v), want %+v", q.Forward(), q2, err, q)
		}
		if want := cmp.Or(model, "auto"); q.Model != want || want != "auto" && want != "ext" && want != "native" {
			t.Fatalf("model=%q accepted as %q", model, q.Model)
		}
		if want, _ := strconv.Atoi(mem); q.Mem != want || mem != "" && want < 1 {
			t.Fatalf("mem=%q gave %d", mem, q.Mem)
		}
		if want, _ := strconv.Atoi(prio); prio != "" && q.Priority != want {
			t.Fatalf("priority=%q gave %d, want %d", prio, q.Priority, want)
		}
		d, ms := q.Deadline, q.Deadline.Milliseconds()
		if deadline == "" {
			if q.hasDeadline || d != 0 {
				t.Fatalf("no deadline gave %v", d)
			}
			return
		}
		if !q.hasDeadline {
			t.Fatalf("deadline=%q accepted as none", deadline)
		}
		if _, perr := time.ParseDuration(deadline); perr == nil {
			if d < 0 {
				t.Fatalf("deadline=%q gave %v", deadline, d)
			}
			return
		}
		v, perr := strconv.ParseInt(deadline, 10, 64)
		if perr != nil {
			t.Fatalf("deadline=%q accepted, but it is neither a duration nor an integer", deadline)
		}
		if ms != v || d%time.Millisecond != 0 || int64(d/time.Millisecond) != v {
			t.Fatalf("deadline=%q gave %v (%d ms), want %d ms", deadline, d, ms, v)
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
