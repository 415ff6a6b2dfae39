package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var wantComment = regexp.MustCompile(`// want (\S+) (\S+)`)

// TestLintNamesEachPlantedFinding runs the lint over testdata/, a small
// module that plants one instance of each rule, each marked on its line
// with a "// want rule name" comment, and expects exactly those findings
// with file and line, each rule's fix-it, and the one stale allowlist
// line.
func TestLintNamesEachPlantedFinding(t *testing.T) {
	report, err := lint("testdata", "allow.txt")
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	want := map[string]bool{}
	planted := map[string]bool{}
	err = filepath.WalkDir("testdata", func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(p) != ".go" {
			return err
		}
		src, err := os.ReadFile(p)
		for i, line := range strings.Split(string(src), "\n") {
			if m := wantComment.FindStringSubmatch(line); m != nil {
				rel, _ := filepath.Rel("testdata", p)
				want[fmt.Sprintf("%s:%d: %s: %s", filepath.ToSlash(rel), i+1, m[1], m[2])] = true
				planted[m[1]] = true
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(planted) != len(rules) {
		t.Fatalf("testdata plants %d of the %d rules", len(planted), len(rules))
	}
	fixits, stale := 0, 0
	for _, line := range report {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "  "):
			fixits++
		case strings.HasPrefix(line, "allow.txt:3: stale:"):
			stale++
		case len(f) >= 3 && want[strings.Join(f[:3], " ")]:
			delete(want, strings.Join(f[:3], " "))
		default:
			t.Errorf("unexpected report line %q", line)
		}
	}
	for w := range want {
		t.Errorf("report lacks %q", w)
	}
	if fixits != len(rules) || stale != 1 {
		t.Errorf("%d fix-its and %d stale lines, want %d and 1", fixits, stale, len(rules))
	}
	for _, name := range []string{"T.String", "h.Len", "h.Less", "h.Swap", "Kept", "Perf", "unused"} {
		for _, line := range report {
			if strings.Contains(line, " "+name+" ") {
				t.Errorf("%s is named: %q", name, line)
			}
		}
	}
}
