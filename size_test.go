package barneshut

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/wiregolden"
)

// TestSize records in SIZE.txt the lines of Go in each package, non-test
// and test apart, so a change's line delta is that file's diff.
// UPDATE_GOLDEN=1 rewrites it.
func TestSize(t *testing.T) {
	type lines struct{ code, test int }
	per := make(map[string]*lines)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if per[dir] == nil {
			per[dir] = new(lines)
		}
		if n := bytes.Count(b, []byte("\n")); strings.HasSuffix(path, "_test.go") {
			per[dir].test += n
		} else {
			per[dir].code += n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 0, len(per))
	for d := range per {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	var b bytes.Buffer
	b.WriteString("# Lines of Go per package (wc -l), non-test and test.\n# UPDATE_GOLDEN=1 go test -run TestSize . rewrites this file.\n")
	row := func(name string, l lines) { fmt.Fprintf(&b, "%-24s %6d %6d\n", name, l.code, l.test) }
	var internal, total lines
	for _, d := range dirs {
		l := *per[d]
		row(d, l)
		if strings.HasPrefix(d, "internal/") {
			internal.code, internal.test = internal.code+l.code, internal.test+l.test
		}
		total.code, total.test = total.code+l.code, total.test+l.test
	}
	row("internal/ total", internal)
	row("total", total)
	wiregolden.File(t, "SIZE.txt", b.Bytes())
}
