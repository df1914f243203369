package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGolden loads each testdata file as its own ad-hoc package, runs
// the full analyzer suite, and diffs produced diagnostics against the
// expectations embedded in the sources:
//
//	// want <analyzer> "message substring"
//	// want-suppressed <analyzer> "message substring"
//
// Every expectation must be matched by a diagnostic on its line, and
// every diagnostic must match an expectation.
func TestGolden(t *testing.T) {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(dir)
	files, err := filepath.Glob("testdata/*.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no testdata files found")
	}
	wantRe := regexp.MustCompile(`// (want|want-suppressed) ([a-z]+) "([^"]*)"`)
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			pkg, err := loader.LoadFiles("samlint/"+file, file)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkg.Errs) > 0 {
				t.Fatalf("type errors in %s: %v", file, pkg.Errs)
			}
			diags := Run(pkg, Analyzers)

			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			type expectation struct {
				line       int
				analyzer   string
				substring  string
				suppressed bool
			}
			var exps []expectation
			for i, ln := range strings.Split(string(src), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(ln, -1) {
					exps = append(exps, expectation{
						line:       i + 1,
						analyzer:   m[2],
						substring:  m[3],
						suppressed: m[1] == "want-suppressed",
					})
				}
			}

			matched := make([]bool, len(exps))
			for _, d := range diags {
				found := false
				for i, e := range exps {
					if matched[i] || e.line != d.Pos.Line ||
						e.analyzer != d.Analyzer || e.suppressed != d.Suppressed {
						continue
					}
					if strings.Contains(d.Message, e.substring) {
						matched[i] = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic (suppressed=%v): %s", d.Suppressed, d)
				}
			}
			for i, e := range exps {
				if !matched[i] {
					t.Errorf("missing diagnostic: line %d, analyzer %s, message containing %q",
						e.line, e.analyzer, e.substring)
				}
			}
		})
	}
}

// TestSuppressionReason checks the directive's reason is carried through
// to the diagnostic, which samlint echoes under -v.
func TestSuppressionReason(t *testing.T) {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(dir)
	pkg, err := loader.LoadFiles("samlint/testdata/suppressed", "testdata/suppressed.go")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkg, Analyzers)
	found := false
	for _, d := range diags {
		if d.Analyzer == "holdblock" && d.Suppressed {
			found = true
			if want := "barrier ordering is acyclic in this test fixture"; d.Reason != want {
				t.Errorf("suppression reason = %q, want %q", d.Reason, want)
			}
		}
	}
	if !found {
		t.Fatal("expected a suppressed holdblock diagnostic in testdata/suppressed.go")
	}
}
