package appshare_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteRealTests: every backticked Test…, Benchmark… or Fuzz…
// name in DESIGN.md and EXPERIMENTS.md is a func of some _test.go in the
// repository. A package-qualified name (`core.TestX`) resolves by the
// part after the dot, a sub-test (`TestX/case`) by the part before the
// slash.
func TestDocsCiteRealTests(t *testing.T) {
	defined := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile("`(?:[a-z]\\w*\\.)?((?:Test|Benchmark|Fuzz)[A-Z0-9]\\w*)(?:/[^`]*)?`")
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllSubmatch(src, -1) {
			if !defined[string(m[1])] {
				t.Errorf("%s cites %s, which no _test.go defines", doc, m[0])
			}
		}
	}
}
