package main

// Tests of the command's one entry, run: the flag checks every kernel
// shares, and the CPU profile a failing run leaves. The ext model's
// inputs and every kernel's output are tested in ext_test.go and
// kernel_test.go.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"asymsort/internal/kernel"
)

// cli runs the command on args with stdin, and returns what it wrote
// to stdout and to stderr, and its error.
func cli(stdin []byte, args ...string) (stdout, stderr string, err error) {
	var out, errOut bytes.Buffer
	err = run(args, bytes.NewReader(stdin), &out, &errOut)
	return out.String(), errOut.String(), err
}

// TestFlagErrors: for every kernel, -m with -model ext, -wire without
// it, and an unknown -model are usage errors, and so are an unknown
// -kernel and a non-sort kernel on ram or aem. Each returns before
// anything is staged: nothing on stdout and no spill directory.
func TestFlagErrors(t *testing.T) {
	var rows [][]string
	for _, name := range kernel.Names() {
		kn := []string{"-kernel", name}
		rows = append(rows,
			append(kn, "-model", "ext", "-m", "65536"),
			append(kn, "-model", "co", "-wire", "text"),
			append(kn, "-model", "native", "-wire", "binary"),
			append(kn, "-model", "quantum"),
		)
		if name != "sort" {
			rows = append(rows, append(kn, "-model", "ram"), append(kn, "-model", "aem"))
		}
	}
	rows = append(rows,
		[]string{"-kernel", "shuffle", "-model", "ext"},
		[]string{"-model", "aem", "-algo", "quick"},
		[]string{"-model", "native", "-algo", "heap"},
		[]string{"-model", "ext", "-wire", "json"},
		[]string{"-model", "ext", "-mem", "lots"},
		[]string{"-model", "co", "-b", "0"},
		[]string{"-model", "ext", "-n", "-5"},
		[]string{"-bogus"},
	)
	for _, args := range rows {
		spill := filepath.Join(t.TempDir(), "spill")
		stdout, _, err := cli(nil, append([]string{"-n", "1000", "-tmpdir", spill}, args...)...)
		if !errors.As(err, new(usageError)) || stdout != "" {
			t.Errorf("%v: err=%v, printed %q; want a usage error and nothing on stdout", args, err, stdout)
		}
		if _, err := os.Stat(spill); !os.IsNotExist(err) {
			t.Errorf("%v: the spill directory exists (%v)", args, err)
		}
	}
}

// TestFailedRunKeepsProfile: a run that fails after its CPU profile
// started still stops the profile, so the file holds a profile.
func TestFailedRunKeepsProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.prof")
	for _, model := range []string{"ext", "native"} {
		_, _, err := cli(nil, "-model", model, "-in", filepath.Join(dir, "missing.txt"),
			"-cpuprofile", prof, "-tmpdir", filepath.Join(dir, "spill"))
		if err == nil || errors.As(err, new(usageError)) {
			t.Fatalf("-model %s on a missing input: err=%v, want a failure", model, err)
		}
		if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
			t.Fatalf("-model %s: the failed run's profile is empty or missing (%v)", model, err)
		}
		os.Remove(prof)
	}
}
