// Package golden pins test outputs to committed SHA-256 digests. Each
// digest file under testdata/golden at the module root maps a case name
// to the hex digest of that case's bytes, one "<digest>  <name>" line per
// case, sorted by name. A refactor that changes any pinned output fails
// the test that owns the file; running that package's tests with -update
// rewrites the file from the current outputs instead.
package golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/golden digest files from the current outputs")

// Digest returns the hex SHA-256 of b.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// path resolves a digest file under testdata/golden at the module root
// (the nearest ancestor of the working directory holding go.mod).
func path(t testing.TB, file string) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, "testdata", "golden", file)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatalf("golden: no go.mod above the working directory")
		}
		dir = parent
	}
}

// Load reads a committed digest file as case name → hex digest.
func Load(t testing.TB, file string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(path(t, file))
	if err != nil {
		t.Fatalf("golden: %v (run the owning test with -update to create it)", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		digest, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("golden: %s: malformed line %q", file, line)
		}
		want[name] = digest
	}
	return want
}

// Check compares every case in got (name → hex digest) with the
// committed file, which must hold exactly the same case names. Under
// -update it rewrites the file from got instead.
func Check(t testing.TB, file string, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *update {
		var buf bytes.Buffer
		for _, name := range names {
			buf.WriteString(got[name] + "  " + name + "\n")
		}
		p := path(t, file)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := Load(t, file)
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("golden %s: %s digest %s, committed %q", file, name, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden %s: committed case %s was not produced", file, name)
		}
	}
}
