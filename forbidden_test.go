package barneshut

import (
	"bufio"
	"bytes"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// forbidden is one guard of testdata/forbidden.txt.
type forbidden struct {
	glob   string
	re     *regexp.Regexp
	reason string
}

// matches reports whether the guard applies to the file at the slash path
// p, relative to the module root.
func (g forbidden) matches(p string) bool {
	name := p
	if !strings.Contains(g.glob, "/") {
		name = path.Base(p)
	}
	ok, _ := path.Match(g.glob, name)
	return ok
}

// TestForbiddenNames fails on every line of a file in the module that a
// guard of testdata/forbidden.txt matches: what a change deleted on
// purpose — an import, a second implementation's names, an instruction
// class — must not come back.
func TestForbiddenNames(t *testing.T) {
	guards := readForbidden(t, "testdata/forbidden.txt")
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		p = filepath.ToSlash(p)
		var src []byte
		for _, g := range guards {
			if !g.matches(p) {
				continue
			}
			if src == nil {
				if src, err = os.ReadFile(p); err != nil {
					return err
				}
			}
			for n, line := range bytes.Split(src, []byte("\n")) {
				if g.re.Match(line) {
					t.Errorf("%s:%d: %s\n\tforbidden: %s", p, n+1, bytes.TrimSpace(line), g.reason)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// readForbidden parses the guard file: per line a path glob, a regex in
// backquotes and the reason.
func readForbidden(t *testing.T, file string) []forbidden {
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var guards []forbidden
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" || s[0] == '#' {
			continue
		}
		glob, rest, _ := strings.Cut(s, " ")
		rest = strings.TrimSpace(rest)
		quoted, err := strconv.QuotedPrefix(rest)
		if err != nil || quoted[0] != '`' {
			t.Fatalf("%s:%d: want \"<glob> `<regex>` <why>\", got %q", file, line, s)
		}
		expr, _ := strconv.Unquote(quoted)
		re, err := regexp.Compile(expr)
		if err != nil {
			t.Fatalf("%s:%d: %v", file, line, err)
		}
		if _, err := path.Match(glob, ""); err != nil {
			t.Fatalf("%s:%d: glob %q: %v", file, line, glob, err)
		}
		reason := strings.TrimSpace(rest[len(quoted):])
		if reason == "" {
			t.Fatalf("%s:%d: no reason given", file, line)
		}
		guards = append(guards, forbidden{glob, re, reason})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(guards) == 0 {
		t.Fatalf("%s holds no guard", file)
	}
	return guards
}
