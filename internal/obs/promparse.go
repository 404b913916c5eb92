package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition sample: a metric name, its label pairs
// (sorted by key at parse time), and its value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Snapshot is a parsed /metrics scrape with lookup helpers. asymload's
// -metrics invariant check and the tests consume this.
type Snapshot struct {
	Samples []Sample
}

// ParseProm parses Prometheus text exposition (the subset WriteProm emits:
// HELP/TYPE comments, samples with optional labels, no timestamps) and
// validates its structure: TYPE before samples, known types, well-formed
// label syntax, parseable values. It returns an error on the first
// malformed line.
func ParseProm(r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	snap := &Snapshot{}
	typed := make(map[string]string) // family -> TYPE
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if fields[1] == "TYPE" {
				if len(fields) < 4 {
					return nil, fmt.Errorf("line %d: TYPE missing value", lineNo)
				}
				switch fields[3] {
				case typeCounter, typeGauge, typeHistogram, "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q", lineNo, fields[3])
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := s.Name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(fam, suf); ok && typed[base] == typeHistogram {
				fam = base
				break
			}
		}
		if _, ok := typed[fam]; !ok {
			return nil, fmt.Errorf("line %d: sample %s before TYPE declaration", lineNo, s.Name)
		}
		snap.Samples = append(snap.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i >= 0 && rest[i] == '{' {
		s.Name = rest[:i]
		rest = rest[i+1:]
		var err error
		rest, err = parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
	} else {
		if i < 0 {
			return s, fmt.Errorf("no value in %q", line)
		}
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	valStr := strings.TrimSpace(rest)
	if i := strings.IndexByte(valStr, ' '); i >= 0 {
		// a timestamp would appear here; WriteProm never emits one
		return s, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	v, err := parsePromFloat(valStr)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", valStr, err)
	}
	s.Value = v
	return s, nil
}

func parsePromFloat(v string) (float64, error) {
	switch v {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(v, 64)
}

// parseLabels consumes `k="v",...}` and returns what follows the brace.
func parseLabels(rest string, into map[string]string) (string, error) {
	for {
		rest = strings.TrimLeft(rest, " ,")
		if rest == "" {
			return "", fmt.Errorf("unterminated label set")
		}
		if rest[0] == '}' {
			return rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return "", fmt.Errorf("label without '=' near %q", rest)
		}
		key := rest[:eq]
		if !validMetricName(key) {
			return "", fmt.Errorf("invalid label name %q", key)
		}
		rest = rest[eq+1:]
		if rest == "" || rest[0] != '"' {
			return "", fmt.Errorf("label %s: value not quoted", key)
		}
		rest = rest[1:]
		var b strings.Builder
		for {
			if rest == "" {
				return "", fmt.Errorf("label %s: unterminated value", key)
			}
			c := rest[0]
			rest = rest[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if rest == "" {
					return "", fmt.Errorf("label %s: dangling escape", key)
				}
				switch rest[0] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return "", fmt.Errorf("label %s: bad escape \\%c", key, rest[0])
				}
				rest = rest[1:]
				continue
			}
			b.WriteByte(c)
		}
		into[key] = b.String()
	}
}

// Get returns the value of the sample with the given name whose labels are a
// superset of want (nil want matches the first sample with that name). The
// second return reports whether such a sample exists.
func (s *Snapshot) Get(name string, want map[string]string) (float64, bool) {
	for _, smp := range s.Samples {
		if smp.Name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if smp.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return smp.Value, true
		}
	}
	return 0, false
}

// Sum returns the sum over every sample with the given name (all label
// sets), e.g. total jobs across kernel/model/outcome.
func (s *Snapshot) Sum(name string) float64 {
	var tot float64
	for _, smp := range s.Samples {
		if smp.Name == name {
			tot += smp.Value
		}
	}
	return tot
}

// Names returns the sorted distinct sample names in the snapshot.
func (s *Snapshot) Names() []string {
	seen := map[string]bool{}
	for _, smp := range s.Samples {
		seen[smp.Name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
