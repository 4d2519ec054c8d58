package cc_test

import (
	"os"
	"path/filepath"
	"testing"

	"roccc/internal/cc"
	"roccc/internal/exp"
)

// FuzzParse drives the front end with arbitrary text: Parse and then
// Analyze must never panic, and whenever lexing the whole input fails,
// Parse must report that same error, so pulling tokens on demand keeps
// the whole-input lexer's error precedence. Minimized crashers belong
// under testdata/fuzz/FuzzParse, where go test replays them.
func FuzzParse(f *testing.F) {
	corpus, err := filepath.Glob("../../ci/corpus/*.c")
	if err != nil {
		f.Fatal(err)
	}
	if len(corpus) == 0 {
		f.Fatal("no ci/corpus kernels to seed from")
	}
	for _, path := range corpus {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range []string{
		exp.Fig3Source, exp.Fig4Source, exp.Fig5Source,
		"void f( { } @",
		"void f(void",
		"int g; unsigned f(int a, ) { } /* open",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := cc.Parse(src)
		if _, lexErr := cc.Lex(src); lexErr != nil {
			if err == nil || err.Error() != lexErr.Error() {
				t.Fatalf("Parse error %v, want the lexer's %v", err, lexErr)
			}
			return
		}
		if err != nil {
			return
		}
		cc.Analyze(file) // must not panic; rejecting the input is fine
	})
}
