// Package linttest runs lint analyzers over annotated fixture
// packages, in the shape of x/tools' analysistest: a fixture source
// line that should be diagnosed carries a trailing
//
//	// want `regexp`
//
// comment. RunFixture fails the test for every diagnostic without a
// matching want on its line, and for every want no diagnostic matched
// — so fixtures prove both that an analyzer fires and that it stays
// silent.
package linttest

import (
	"fmt"
	"go/ast"
	"regexp"
	"testing"

	"roccc/internal/lint"
)

var wantRE = regexp.MustCompile("// want `([^`]+)`")

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// RunFixture loads dir as a standalone package and checks the
// analyzers' diagnostics against its `// want` annotations.
func RunFixture(t *testing.T, loader *lint.Loader, dir string, analyzers ...*lint.Analyzer) {
	t.Helper()
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range collectComments(f) {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					pos := pkg.Fset.Position(c.Pos())
					t.Fatalf("%s: bad want regexp: %v", pos, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	diags, err := lint.RunPackage(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want `%s`", w.file, w.line, w.re)
		}
	}
}

// claim marks the first unmatched want on the diagnostic's line whose
// regexp matches it.
func claim(wants []*want, d lint.Diagnostic) bool {
	msg := fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

func collectComments(f *ast.File) []*ast.CommentGroup {
	return f.Comments
}
